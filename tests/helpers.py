"""Seeded random generators and plain references shared across the test modules."""

from __future__ import annotations

import itertools
import operator
import random

from hypothesis import strategies as st

from sct import (
    Arc,
    ArcKind,
    CompositionError,
    FunSig,
    GraphSet,
    LassoMultipath,
    SizeChangeGraph,
)
from sct.colorings import EPColoring
from sct.extract import Description, Mode, extract_description
from sct.fixtures import ackermann_program
from sct import interp
from sct.interp import Fuel, OutOfFuel, SafetyReport, Violation
from sct.parser import ParseError
from sct.record import record
from sct.reduction import ReversalRun, _family_graph, family_signature, index_sets
from sct.syntax import (
    And,
    Call,
    Cases,
    Const,
    EqConst,
    Le,
    Lt,
    Not,
    Or,
    Pred,
    PrimOp,
    Program,
    Succ,
    Var,
)


def random_sigs(rng: random.Random, max_funs: int, max_arity: int) -> list[FunSig]:
    count = rng.randint(1, max_funs)
    return [
        FunSig(f"f{i}", tuple(f"p{j}" for j in range(rng.randint(1, max_arity))))
        for i in range(count)
    ]


def random_graph(rng: random.Random, source: FunSig, target: FunSig) -> SizeChangeGraph:
    arcs = []
    for s in range(source.arity):
        for t in range(target.arity):
            r = rng.random()
            if r < 0.25:
                arcs.append(Arc(s, ArcKind.STRICT, t))
            elif r < 0.5:
                arcs.append(Arc(s, ArcKind.NONSTRICT, t))
    return SizeChangeGraph(source, target, tuple(arcs))


def random_sparse_graph(rng: random.Random, source: FunSig, target: FunSig) -> SizeChangeGraph:
    """At most three arcs per source parameter, to distinct targets, each strict half the time."""
    arcs = [
        Arc(s, rng.choice((ArcKind.STRICT, ArcKind.NONSTRICT)), t)
        for s in range(source.arity)
        for t in rng.sample(range(target.arity), min(target.arity, rng.randint(0, 3)))
    ]
    return SizeChangeGraph(source, target, tuple(arcs))


def random_graph_set(
    rng: random.Random, max_funs: int = 2, max_arity: int = 2, max_graphs: int = 3
) -> GraphSet:
    sigs = random_sigs(rng, max_funs, max_arity)
    graphs = [
        random_graph(rng, rng.choice(sigs), rng.choice(sigs))
        for _ in range(rng.randint(1, max_graphs))
    ]
    return GraphSet.of(graphs, sigs=sigs)


def random_functional_graph_set(
    rng: random.Random, max_funs: int = 3, max_arity: int = 3, max_graphs: int = 5
) -> GraphSet:
    """Graph sets with at most one arc into each target parameter (synthesizable)."""
    sigs = random_sigs(rng, max_funs, max_arity)
    graphs = []
    for _ in range(rng.randint(1, max_graphs)):
        src, tgt = rng.choice(sigs), rng.choice(sigs)
        arcs = []
        for t in range(tgt.arity):
            if rng.random() < 0.6:
                kind = rng.choice((ArcKind.STRICT, ArcKind.NONSTRICT))
                arcs.append(Arc(rng.randrange(src.arity), kind, t))
        graphs.append(SizeChangeGraph(src, tgt, tuple(arcs)))
    return GraphSet.of(graphs, sigs=sigs)


def random_wide_graph_set(rng: random.Random, max_funs: int = 2, max_graphs: int = 3) -> GraphSet:
    """Graph sets on 70 to 72 parameters whose closures stay small.

    Each function has a core of three parameters, one of them past the 64th;
    a graph links the cores at random and every other parameter to itself,
    non-strictly, so rows and strict bits run past 64 bits.
    """
    sigs = [
        FunSig(f"f{i}", tuple(f"p{j}" for j in range(rng.randint(70, 72))))
        for i in range(rng.randint(1, max_funs))
    ]
    core = {s: rng.sample(range(64), 2) + [rng.randrange(64, s.arity)] for s in sigs}
    graphs = []
    for _ in range(rng.randint(1, max_graphs)):
        a, b = rng.choice(sigs), rng.choice(sigs)
        arcs = [
            Arc(p, ArcKind.NONSTRICT, p)
            for p in range(min(a.arity, b.arity))
            if p not in core[a] and p not in core[b]
        ]
        for s in core[a]:
            for t in core[b]:
                r = rng.random()
                if r < 0.5:
                    arcs.append(Arc(s, ArcKind.STRICT if r < 0.25 else ArcKind.NONSTRICT, t))
        graphs.append(SizeChangeGraph(a, b, tuple(arcs)))
    return GraphSet.of(graphs, sigs=sigs)


def random_permutation_set(
    rng: random.Random, arity: int = 5, partial: float = 0.2, strict_fixpoint: bool = False
) -> GraphSet:
    """Three partial permutations of one function's parameters, about 1 arc in 4 strict.

    Each parameter keeps its arc with probability ``1 - partial``.  With
    ``strict_fixpoint`` parameter 0 maps to itself strictly in every graph,
    so every closure element descends and the set terminates.  Closures of
    such sets run to thousands of elements on one signature.
    """
    sig = FunSig("f", tuple(f"p{j}" for j in range(arity)))
    low = 1 if strict_fixpoint else 0
    graphs = []
    for _ in range(3):
        image = rng.sample(range(low, arity), arity - low)
        arcs = [Arc(0, ArcKind.STRICT, 0)] if strict_fixpoint else []
        for s, t in zip(range(low, arity), image):
            if rng.random() >= partial:
                kind = ArcKind.STRICT if rng.random() < 0.25 else ArcKind.NONSTRICT
                arcs.append(Arc(s, kind, t))
        graphs.append(SizeChangeGraph(sig, sig, tuple(arcs)))
    return GraphSet.of(graphs)


def random_cyclic_word(rng: random.Random, gs: GraphSet, max_len: int = 4):
    """A composable cyclic word over gs, or None if the random walk finds none."""
    for _ in range(50):
        start = rng.randrange(len(gs.graphs))
        word = [start]
        for _ in range(rng.randint(0, max_len - 1)):
            options = [
                j
                for j in range(len(gs.graphs))
                if gs.graphs[word[-1]].target == gs.graphs[j].source
            ]
            if not options:
                break
            word.append(rng.choice(options))
        if gs.graphs[word[-1]].target == gs.graphs[word[0]].source:
            return tuple(word)
    return None


FUNS, PARAMS = ["f", "g"], ["x", "y"]


@st.composite
def program_text(draw):
    """At most two functions of arity <= 2; a call sometimes has the wrong arity.

    A body is an else-if chain of up to two branches.  Conditions use every
    form: x=c, x<y, x<=y, !, &&, || and parentheses; a then-branch may be an
    if of its own.
    """
    arity = {f: draw(st.integers(1, 2)) for f in FUNS[: draw(st.integers(1, 2))]}

    def expr(params, depth):
        kind = draw(st.integers(0, 3 if depth < 3 else 1))
        if kind == 0:
            return draw(st.sampled_from(["0", "1", *params]))
        if kind == 1:
            return draw(st.sampled_from(params)) + draw(st.sampled_from(["-1", "+1"]))
        f = draw(st.sampled_from([*arity, "plus"]))
        n = draw(st.sampled_from([arity.get(f, 2)] * 3 + [1, 2]))
        return f"{f}({', '.join(expr(params, depth + 1) for _ in range(n))})"

    def cond(params, depth):
        kind = draw(st.integers(0, 4 if depth < 2 else 0))
        if kind == 0:
            p, q = draw(st.sampled_from(params)), draw(st.sampled_from([*params, "0", "1", "2"]))
            op = "=" if q.isdigit() else draw(st.sampled_from(["<", "<="]))
            return f"{p}{op}{q}"
        if kind == 1:
            return "!" + cond(params, depth + 1)
        if kind == 2:
            return f"({cond(params, depth + 1)})"
        return f"{cond(params, depth + 1)} {'&&' if kind == 3 else '||'} {cond(params, depth + 1)}"

    def then(params, depth):
        if depth < 2 and draw(st.booleans()):
            inner = f"{then(params, depth + 1)} else {expr(params, 1)}"
            return f"if {cond(params, 0)} then {inner}"
        return expr(params, 1)

    defs = []
    for f, n in arity.items():
        params = PARAMS[:n]
        body = expr(params, 0)
        for _ in range(draw(st.integers(0, 2))):
            body = f"if {cond(params, 0)} then {then(params, 0)} else {body}"
        defs.append(f"{f}({', '.join(params)}) = {body}")
    return "\n".join(defs)


def reference_compose(g0: SizeChangeGraph, g1: SizeChangeGraph) -> SizeChangeGraph:
    """Composition on `Arc` objects, the plain reference for the packed kernel."""
    if g0.target != g1.source:
        raise CompositionError("endpoints do not line up")
    by_src: dict[int, list[Arc]] = {}
    for b in g1.arcs:
        by_src.setdefault(b.src, []).append(b)
    best: dict[tuple[int, int], ArcKind] = {}
    for a in g0.arcs:
        for b in by_src.get(a.tgt, ()):
            # a two-step path decreases strictly as soon as one step does
            strict = ArcKind.STRICT in (a.kind, b.kind)
            key = (a.src, b.tgt)
            if best.get(key) is not ArcKind.STRICT:
                best[key] = ArcKind.STRICT if strict else ArcKind.NONSTRICT
    arcs = tuple(Arc(s, k, t) for (s, t), k in sorted(best.items()))
    return SizeChangeGraph(g0.source, g1.target, arcs)


def reference_closure(gs: GraphSet) -> list[tuple[SizeChangeGraph, tuple[int, ...]]]:
    """Breadth-first closure by `reference_compose`: (graph, witness) pairs in order.

    Graphs are told apart by their arcs, not by the kernel's equality.
    """
    order: list[tuple[SizeChangeGraph, tuple[int, ...]]] = []
    seen: set = set()

    def visit(g: SizeChangeGraph, word: tuple[int, ...]) -> None:
        if (g.source, g.target, g.arcs) not in seen:
            seen.add((g.source, g.target, g.arcs))
            order.append((g, word))

    for i, g in enumerate(gs.graphs):
        visit(g, (i,))
    for g, word in order:
        for j, base in enumerate(gs.graphs):
            if g.target == base.source:
                visit(reference_compose(g, base), word + (j,))
    return order


REFERENCE_PRIMS = {"plus": operator.add, "times": operator.mul, "max": max, "min": min}


def hook_transitions(program: Program, fun: str, values: tuple, budget: int) -> list[tuple]:
    """The transitions the compiled walk's hook sees from fun on values, in order.

    Each is (sig, values, label, callee sig, argv); the list stops where the
    fuel runs out.
    """
    out: list[tuple] = []
    try:
        fn = interp._Compiled(program).enter(fun, values)
        interp._run(fn, values, Fuel(budget), lambda *t: out.append(t))
    except OutOfFuel:
        pass
    return out


def reference_run(program: Program, fun: str, values: tuple, fuel: Fuel, on_transition=None) -> int:
    """Evaluate fun on values by walking the tree, one Python call per interpreted call.

    The plain reference for the compiled interpreter: fuel is spent on every
    call entry, after on_transition has seen the call as the hook's
    (sig, values, label, callee sig, argv).
    """
    defs = {d.sig.name: d for d in program.defs}

    def call(name: str, values: tuple) -> int:
        if fuel.budget <= 0:
            raise OutOfFuel()
        fuel.budget -= 1
        d = defs[name]
        env = dict(zip(d.sig.params, values))
        c = d.body
        while isinstance(c, Cases):
            c = next((t for b, t in zip(c.conds, c.thens) if holds(b, env)), c.orelse)
        return expr(c, env, d.sig, values)

    def holds(b, env) -> bool:
        match b:
            case EqConst(p, v):
                return env[p] == v
            case Lt(l, r):
                return env[l] < env[r]
            case Le(l, r):
                return env[l] <= env[r]
            case And(l, r):
                return holds(l, env) and holds(r, env)
            case Or(l, r):
                return holds(l, env) or holds(r, env)
            case Not(operand):
                return not holds(operand, env)
        raise TypeError(b)

    def expr(e, env, sig, values) -> int:
        match e:
            case Var(p):
                return env[p]
            case Const(v):
                return v
            case Succ(p):
                return env[p] + 1
            case Pred(p):
                return max(env[p] - 1, 0)
            case PrimOp(op, args):
                return REFERENCE_PRIMS[op](*[expr(a, env, sig, values) for a in args])
            case Call(f, args, label):
                argv = tuple(expr(a, env, sig, values) for a in args)
                if on_transition is not None:
                    on_transition(sig, values, label, defs[f].sig, argv)
                return call(f, argv)
        raise TypeError(e)

    return call(fun, tuple(values))


def reference_trace(program: Program, fun: str, values: tuple, fuel: Fuel) -> list[tuple]:
    """`hook_transitions` by `reference_run`."""
    out: list[tuple] = []
    try:
        reference_run(program, fun, values, fuel, lambda *t: out.append(t))
    except OutOfFuel:
        pass
    return out


def reference_safety(program: Program, description, trials, value_bound, fuel, seed=0) -> SafetyReport:
    """`sample_safety` by `reference_run`: each trial runs, then its transitions are checked."""
    rng = random.Random(seed)
    report = SafetyReport()
    for _ in range(trials):
        d = rng.choice(program.defs)
        values = tuple(rng.randint(0, value_bound) for _ in d.sig.params)
        transitions: list[tuple] = []
        try:
            reference_run(program, d.sig.name, values, Fuel(fuel), lambda *t: transitions.append(t))
            report.converged += 1
        except OutOfFuel:
            report.skipped += 1
        for _, source_values, site, _, argv in transitions:
            for arc in description[site].arcs:
                u, v = source_values[arc.src], argv[arc.tgt]
                if not (u > v if arc.kind is ArcKind.STRICT else u >= v):
                    report.violations.append(Violation(site, arc, source_values, argv))
    return report


def reference_guard_paths(program: Program) -> list[tuple]:
    """(caller, callee, args, path) per call site, by label.

    A path is the set of signed branch conditions from the body's root to the
    call, as call sites once stored them.
    """
    table = {d.sig.name: d.sig for d in program.defs}
    sites: dict[int, tuple] = {}

    def walk(e, caller, path) -> None:
        match e:
            case Cases(conds, thens, orelse):
                for cond, then in zip(conds, thens):
                    walk(then, caller, path | {(cond, True)})
                    path = path | {(cond, False)}
                walk(orelse, caller, path)
            case Call(fun, args, label):
                sites[label] = (caller, table[fun], args, path)
                for a in args:
                    walk(a, caller, path)
            case PrimOp(_, args):
                for a in args:
                    walk(a, caller, path)

    for d in program.defs:
        walk(d.body, d.sig, frozenset())
    return [sites[label] for label in range(len(sites))]


def reference_forces_positive(path, param: str) -> bool:
    """One scan of a guard path by the three rules: a failed x=0, a passed
    x=c with c >= 1, or a passed y<x forces x > 0."""
    for cond, holds in path:
        match cond, holds:
            case (EqConst(p, 0), False) if p == param:
                return True
            case (EqConst(p, c), True) if p == param and c >= 1:
                return True
            case (Lt(_, r), True) if r == param:
                return True
    return False


def reference_description(program: Program, mode: Mode) -> tuple[SizeChangeGraph, ...]:
    """`extract_description`'s graphs, with x-1 decided by scanning the guard path."""
    graphs = []
    for caller, callee, args, path in reference_guard_paths(program):
        arcs = []
        for j, a in enumerate(args):
            if isinstance(a, (Var, Pred)):
                strict = isinstance(a, Pred) and (
                    mode is Mode.SYNTACTIC or reference_forces_positive(path, a.name)
                )
                kind = ArcKind.STRICT if strict else ArcKind.NONSTRICT
                arcs.append(Arc(caller.index_of(a.name), kind, j))
        graphs.append(SizeChangeGraph(caller, callee, tuple(arcs)))
    return tuple(graphs)


def reference_lex(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) per token, read one character at a time.

    The plain reference for the parser's one-pattern lexer; raises the same
    ParseError on a character that starts no token.
    """
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":  # the column stays at the '#'
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append((word if word in ("if", "then", "else") else "ident", word, line, col))
        elif "0" <= c <= "9":  # ASCII only: str.isdigit also accepts '²'
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("number", text[i:j], line, col))
        elif text[i : i + 2] in ("<=", "&&", "||"):
            j = i + 2
            tokens.append((text[i:j], text[i:j], line, col))
        elif c in "(),;=+-<!":
            j = i + 1
            tokens.append((c, c, line, col))
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
        col += j - i
        i = j
    tokens.append(("eof", "", line, col))
    return tokens


def corrupted_ackermann_description() -> Description:
    """The guarded description with a bogus strict y-arc added to the first call."""
    description = extract_description(ackermann_program(), Mode.GUARDED)
    g = description.sites[0]
    bad = SizeChangeGraph(g.source, g.target, g.arcs + (Arc(1, ArcKind.STRICT, 1),))
    return Description((bad,) + description.sites[1:])


# --- the reversal's choice machine, one record per state ----------------------


@record
class ChoiceState:
    """One chosen color per index set, always a member of that set."""

    k: int
    choices: tuple[int, ...]  # aligned with index_sets(k)

    def __post_init__(self) -> None:
        sets = index_sets(self.k)
        if len(self.choices) != len(sets):
            raise ValueError("need one choice per index set")
        for s, c in zip(sets, self.choices):
            if c not in s:
                raise ValueError(f"choice {c} is not in {s}")


def initial_chi(k: int) -> ChoiceState:
    return ChoiceState(k, tuple(s[0] for s in index_sets(k)))


def chi_step(state: ChoiceState, observed: int) -> ChoiceState:
    """Advance each per-subset choice on an observed color.

    A choice moves to the observed color exactly when that color is the next
    element of the subset's cyclic enumeration; singleton subsets never move.
    """
    if not 0 <= observed < state.k:
        raise ValueError(f"color {observed} out of range")
    new = []
    for s, current in zip(index_sets(state.k), state.choices):
        if len(s) == 1:
            new.append(s[0])
            continue
        succ = s[(s.index(current) + 1) % len(s)]
        new.append(observed if succ == observed else current)
    return ChoiceState(state.k, tuple(new))


def active_sets(state: ChoiceState, color: int) -> frozenset[tuple[int, ...]]:
    """Subsets whose choice is at enumeration end and whose least element is the color."""
    return frozenset(
        s
        for s, current in zip(index_sets(state.k), state.choices)
        if current == s[-1] and s[0] == color
    )


def graph_for(state: ChoiceState, color: int) -> SizeChangeGraph:
    """The size-change graph one (choice state, color) step contributes: the
    family graph strict on the active sets of the largest active size."""
    active = active_sets(state, color)
    m = max(len(s) for s in active)
    chosen = {p for p, s in enumerate(index_sets(state.k)) if s in active and len(s) == m}
    return _family_graph(state.k, m, chosen)


def reference_reversal_multipath(c: EPColoring) -> ReversalRun:
    """`build_reversal_multipath` by `ChoiceState`, `graph_for` and `chi_step`,
    with graphs told apart by equality."""
    prefix_len, period_len = len(c.prefix), len(c.period)

    def pos(x: int) -> int:
        return x if x < prefix_len else prefix_len + (x - prefix_len) % period_len

    state = initial_chi(c.k)
    seen: dict[tuple[tuple[int, ...], int], int] = {}
    distinct: dict[SizeChangeGraph, int] = {}  # in first-appearance order
    word = []
    x = 0
    while True:
        key = (state.choices, pos(x))
        if key in seen:
            start = seen[key]
            break
        seen[key] = x
        color = c.at(x)
        word.append(distinct.setdefault(graph_for(state, color), len(distinct)))
        state = chi_step(state, color)
        x += 1
    lasso = LassoMultipath(tuple(word[:start]), tuple(word[start:]))
    return ReversalRun(lasso, GraphSet.of(distinct))


def reference_graph_for(state: ChoiceState, color: int) -> SizeChangeGraph:
    """`graph_for` by `Arc` records: with m the largest active-subset size, a
    strict self-arc on z_I for active I of size m, a non-strict self-arc on
    inactive z_I of size >= m, and no other arcs."""
    k = state.k
    active = active_sets(state, color)
    m = max(len(s) for s in active)
    sig = family_signature(k)
    arcs = []
    for p, s in enumerate(index_sets(k)):
        if s in active and len(s) == m:
            arcs.append(Arc(p, ArcKind.STRICT, p))
        elif s not in active and len(s) >= m:
            arcs.append(Arc(p, ArcKind.NONSTRICT, p))
    return SizeChangeGraph(sig, sig, tuple(arcs))


def reference_spp_family(k: int) -> GraphSet:
    """`spp_reduction_family` by `reference_graph_for` on each choice's least
    state: the last member on the chosen sets, the first elsewhere, sorted on
    (choices, c)."""
    sets = index_sets(k)
    graphs = {}
    for c in range(k):
        for m in range(1, k - c + 1):
            candidates = [s for s in sets if s[0] == c and len(s) == m]
            for r in range(1, len(candidates) + 1):
                for chosen in itertools.combinations(candidates, r):
                    choices = tuple(s[-1] if s in chosen else s[0] for s in sets)
                    graphs[choices, c] = reference_graph_for(ChoiceState(k, choices), c)
    return GraphSet.of(graphs[key] for key in sorted(graphs))
