import pytest

from sct import (
    Arc,
    ArcKind,
    FunSig,
    OutOfFuel,
    State,
    eval_program,
    parse_program,
    sample_safety,
    trace_transitions,
)
from sct.extract import Mode, extract_description
from sct.fixtures import corrupted_ackermann_description


def ack_oracle(x, y):
    # closed forms for the small rows
    if x == 0:
        return y + 1
    if x == 1:
        return y + 2
    if x == 2:
        return 2 * y + 3
    if x == 3:
        return 2 ** (y + 3) - 3
    raise ValueError(x)


class TestEval:
    def test_ackermann_values(self, ackermann):
        assert eval_program(ackermann, "A", (2, 2), 10**6) == 7
        assert eval_program(ackermann, "A", (3, 3), 10**6) == 61

    def test_ackermann_rows_against_closed_forms(self, ackermann):
        for x in range(4):
            for y in range(4):
                assert eval_program(ackermann, "A", (x, y), 10**6) == ack_oracle(x, y)

    def test_zero_fuel(self, ackermann):
        with pytest.raises(OutOfFuel):
            eval_program(ackermann, "A", (0, 0), 0)

    def test_monus_at_zero(self):
        p = parse_program("f(x) = x-1")
        assert eval_program(p, "f", (0,), 10) == 0
        assert eval_program(p, "f", (5,), 10) == 4

    def test_monus_order(self):
        p = parse_program("f(x) = x-1")
        for x in range(6):
            value = eval_program(p, "f", (x,), 10)
            assert value <= x
            assert (value < x) == (x > 0)

    def test_primops_and_constants(self):
        p = parse_program(
            "f(a, b) = if a<=b then plus(times(a, b), max(a, 2)) else min(a, b)"
        )
        assert eval_program(p, "f", (2, 3), 10) == 8
        assert eval_program(p, "f", (3, 2), 10) == 2

    def test_boolean_atoms(self):
        p = parse_program("f(x) = if x=3 && !(x=0) then 1 else 0")
        assert eval_program(p, "f", (3,), 10) == 1
        assert eval_program(p, "f", (2,), 10) == 0

    @pytest.mark.parametrize(
        "cond, values, expected",
        [
            ("x<y", (1, 2), 1),
            ("x<y", (2, 2), 0),
            ("x=0 || y=0", (3, 0), 1),
            ("x=0 || y=0", (3, 5), 0),
        ],
    )
    def test_less_than_and_disjunction(self, cond, values, expected):
        p = parse_program(f"f(x, y) = if {cond} then 1 else 0")
        assert eval_program(p, "f", values, 10) == expected

    def test_arity_check(self, ackermann):
        with pytest.raises(ValueError):
            eval_program(ackermann, "A", (1,), 10)

    def test_unknown_function(self, ackermann):
        with pytest.raises(ValueError):
            eval_program(ackermann, "B", (1, 1), 10)

    def test_negative_argument(self, ackermann):
        with pytest.raises(ValueError, match="natural numbers"):
            eval_program(ackermann, "A", (-1, 2), 10)

    def test_negative_fuel(self, ackermann):
        with pytest.raises(ValueError, match="fuel"):
            eval_program(ackermann, "A", (1, 2), -5)

    def test_determinism(self, ackermann):
        runs = {eval_program(ackermann, "A", (2, 3), 10**6) for _ in range(3)}
        assert runs == {9}

    def test_fuel_monotonicity_sampled(self, ackermann):
        sig = ackermann.defs[0].sig
        for values in [(0, 3), (1, 2), (2, 2), (3, 1)]:
            trace = trace_transitions(ackermann, State(sig, values), 10**6)
            needed = len(trace) + 1  # one spend per call entry
            expected = ack_oracle(*values)
            with pytest.raises(OutOfFuel):
                eval_program(ackermann, "A", values, needed - 1)
            assert eval_program(ackermann, "A", values, needed) == expected
            assert eval_program(ackermann, "A", values, needed + 7) == expected


class TestTrace:
    def test_first_transition_base_row(self, ackermann):
        sig = ackermann.defs[0].sig
        trace = trace_transitions(ackermann, State(sig, (1, 0)), 10**6)
        assert trace[0].site == 0
        assert trace[0].target.values == (0, 1)

    def test_inner_call_first(self, ackermann):
        sig = ackermann.defs[0].sig
        trace = trace_transitions(ackermann, State(sig, (1, 1)), 10**6)
        assert trace[0].site == 2
        assert trace[0].target.values == (1, 0)

    def test_call_free_branch(self, ackermann):
        sig = ackermann.defs[0].sig
        assert trace_transitions(ackermann, State(sig, (0, 5)), 10**6) == []

    def test_truncation(self, ackermann):
        sig = ackermann.defs[0].sig
        trace = trace_transitions(ackermann, State(sig, (3, 3)), 10**6, max_len=10)
        assert len(trace) == 10

    def test_fuel_exhaustion_truncates(self):
        p = parse_program("loop(n) = loop(n+1)")
        trace = trace_transitions(p, State(p.defs[0].sig, (0,)), 25)
        # a transition exists once its argument values do, even if entering
        # the callee then runs out of fuel
        assert len(trace) == 25
        assert [t.target.values[0] for t in trace] == list(range(1, 26))

    def test_unknown_function(self, ackermann):
        with pytest.raises(ValueError, match="no function named 'B'"):
            trace_transitions(ackermann, State(FunSig("B", ("x", "y")), (1, 1)), 10)

    def test_other_signature(self, ackermann):
        with pytest.raises(ValueError, match="signature does not match"):
            trace_transitions(ackermann, State(FunSig("A", ("m", "n")), (1, 1)), 10)

    def test_wrong_length(self, ackermann):
        state = State(ackermann.defs[0].sig, (1,))
        with pytest.raises(ValueError, match=r"^A takes 2 argument\(s\), got 1$"):
            trace_transitions(ackermann, state, 10)

    def test_negative_value(self, ackermann):
        sig = ackermann.defs[0].sig
        with pytest.raises(ValueError, match="natural numbers"):
            trace_transitions(ackermann, State(sig, (-1, 2)), 10)


class TestSafety:
    def test_guarded_ackermann_is_safe(self, ackermann, ack_description):
        report = sample_safety(
            ackermann, ack_description, trials=300, value_bound=3, fuel=10**6, seed=5
        )
        assert report.ok
        assert report.converged == 300 and report.skipped == 0

    def test_corrupted_graph_is_caught(self, ackermann):
        bad = corrupted_ackermann_description()
        report = sample_safety(
            ackermann, bad, trials=100, value_bound=3, fuel=10**6, seed=5
        )
        assert report.violations
        v = report.violations[0]
        assert v.site == 0
        assert v.arc == Arc(1, ArcKind.STRICT, 1)
        # the bogus arc claims y shrinks, but the first call resets y to 1
        assert v.source.values[v.arc.src] <= v.target.values[v.arc.tgt]

    def test_call_free_program(self):
        p = parse_program("f(x) = x+1")
        d = extract_description(p, Mode.GUARDED)
        report = sample_safety(p, d, trials=50, value_bound=3, fuel=10, seed=0)
        assert report.ok and report.converged == 50

    def test_divergent_trials_are_skipped_not_failed(self):
        p = parse_program("loop(n) = loop(n+1)")
        d = extract_description(p, Mode.GUARDED)
        report = sample_safety(p, d, trials=20, value_bound=3, fuel=30, seed=0)
        assert report.skipped == 20 and report.ok
