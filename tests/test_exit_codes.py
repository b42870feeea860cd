"""Fuzz the CLI's exit-code contract: any input gives 0, 1 or 2, never a crash.

`sct.cli.main` runs in process on temporary files.  The inputs are arbitrary
text and JSON, and text or JSON close to valid, so that the checks behind the
first parse error are reached too.
"""

import copy
import io
import json
import pickle
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FUNS, PARAMS, program_text, reference_guard_paths
from sct import SourceError, parse_program, spp_reduction_family, synthesize
from sct.cli import main
from sct.extract import Mode, extract_description
from sct.parser import MAX_NESTING, ParseError
from sct.syntax import format_program

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()


# --- program text -------------------------------------------------------------

TOKENS = FUNS + PARAMS + [
    "if", "then", "else", "plus", "max", "0", "1", "2",
    "(", ")", ",", ";", "=", "+", "-", "<", "<=", "&&", "||", "!", "\n",
]

token_text = st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join)


@FUZZ
@given(st.text(max_size=200) | token_text | program_text())
def test_analyze(workdir, text):
    path = workdir / "program.sct"
    path.write_text(text, encoding="utf-8")
    assert_contract(["analyze", str(path)])


@FUZZ
@given(program_text())
def test_labels_follow_document_order(text):
    # a mislabeled call would only show as exit 2 above, so check the labels here
    try:
        program = parse_program(text)
    except SourceError:
        return
    # extraction rejects labels out of document order; the reference walk
    # finds each call by its label
    assert len(extract_description(program, Mode.GUARDED)) == len(reference_guard_paths(program))
    assert parse_program(format_program(program)) == program


# --- deep nesting -------------------------------------------------------------

NESTINGS = ["arguments", "calls", "then", "not", "parens", "and", "or"]


def nested_program(kind, levels):
    """f nested levels deep by one kind of nesting; every call terminates."""
    cond = {
        "not": "!" * levels + "x=0",
        "parens": "(" * levels + "x=0" + ")" * levels,
        "and": " && ".join(["x=1"] * (levels + 1)),
        "or": " || ".join(["x=0"] * (levels + 1)),
    }.get(kind, "x=0")
    body = {
        "arguments": "plus(" * levels + "x" + ", 1)" * levels,
        "calls": "g(" * levels + "x" + ")" * levels,
        "then": "if x=0 then " * levels + "x" + " else 1" * levels,
    }.get(kind, f"if {cond} then 0 else 1")
    return f"f(x) = {body}\ng(y) = y\n"


def assert_round_trips(program):
    """The program survives printing and parsing, and its records compare,
    hash, print, pickle and copy, all without a RecursionError."""
    again = parse_program(format_program(program))
    assert again == program and hash(again) == hash(program)
    clone = pickle.loads(pickle.dumps(program))
    assert clone == program and repr(clone) == repr(program)
    assert copy.deepcopy(program) == program


@pytest.mark.parametrize("kind", NESTINGS)
def test_program_at_the_nesting_limit(workdir, kind):
    path = workdir / f"{kind}.sct"
    path.write_text(nested_program(kind, MAX_NESTING), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main(["analyze", str(path)]) == 0
        assert main(["run", str(path), "f", "1"]) == 0
    assert_round_trips(parse_program(path.read_text(encoding="utf-8")))
    path.write_text(nested_program(kind, MAX_NESTING + 1), encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["analyze", str(path)]) == 2
    assert f"nested deeper than {MAX_NESTING} levels" in err.getvalue()


LONG_CHAINS = {
    # one function with 2,228 branches
    "spp-family-6": lambda: synthesize(spp_reduction_family(6)),
    "3000-branches": lambda: parse_program(
        "f(x) = " + "".join(f"if x={i} then f(x-1) else " for i in range(3000)) + "x\n"
    ),
}


@pytest.mark.parametrize("name", sorted(LONG_CHAINS))
def test_long_chain_round_trips(name):
    """An else-if chain is one node, so its length adds no depth."""
    assert_round_trips(LONG_CHAINS[name]())


@st.composite
def deep_program(draw):
    """Up to 1,200 levels, past the depth at which each kind of nesting once crashed,
    cycling through a few kinds so that they add up."""
    kinds = draw(st.lists(st.sampled_from(NESTINGS), min_size=1, max_size=3, unique=True))
    levels = draw(st.integers(1, 1200))
    expr, cond, thens = "x", "x=0", 0
    for i in range(levels):
        kind = kinds[i % len(kinds)]
        if kind == "arguments":
            expr = f"plus({expr}, 1)"
        elif kind == "calls":
            expr = f"g({expr})"
        elif kind == "then":
            thens += 1
        elif kind == "not":
            cond = f"!{cond}"
        elif kind == "parens":
            cond = f"({cond})"
        else:
            cond += " && x=1" if kind == "and" else " || x=0"
    body = "if x=0 then " * thens + f"if {cond} then {expr} else 1" + " else 0" * thens
    return f"f(x) = {body}\ng(y) = y\n"


@FUZZ
@given(deep_program())
def test_deep_nesting(workdir, text):
    path = workdir / "deep.sct"
    path.write_text(text, encoding="utf-8")
    assert_contract(["analyze", str(path)])
    assert_contract(["run", str(path), "f", "0", "--fuel", "1000"])


# deep at run time: each shape nests one interpreted call per level
RECURSIONS = {
    "operator": "f(x) = if x=0 then 0 else plus(f(x-1), 1)",
    "argument": "f(x) = if x=0 then 0 else g(f(x-1))\ng(y) = y+1",
    "mutual": "f(x) = if x=0 then 0 else plus(g(x-1), 1)\ng(y) = if y=0 then 1 else times(f(y-1), 2)",
    "then": "f(x) = if !(x=0) then if x=1 then plus(f(x-1), 1) else max(f(x-1), x) else 0",
    "tail": "f(x) = if x=0 then 0 else f(x-1)",
}


@FUZZ
@given(st.sampled_from(sorted(RECURSIONS)), st.integers(0, 5000), st.integers(0, 12000))
def test_deep_recursion(workdir, shape, depth, fuel):
    """Up to 5,000 calls deep, past the depth at which a run once crashed."""
    path = workdir / "recursion.sct"
    path.write_text(RECURSIONS[shape], encoding="utf-8")
    assert_contract(["run", str(path), "f", str(depth), "--fuel", str(fuel)])


# --- graph-set JSON -----------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["functions", "graphs", "name", "params"]), inner),
    max_leaves=12,
)


def paths(data, path=()):
    """The JSON pointer, as a tuple, of every value inside data."""
    if isinstance(data, dict):
        items = data.items()
    else:
        items = enumerate(data) if isinstance(data, list) else ()
    return [path] + [p for key, value in items for p in paths(value, path + (key,))]


@st.composite
def graph_sets(draw):
    """A valid set on names from a small alphabet, arity <= 2 and at most 3 graphs,
    in which one value is sometimes replaced: a kind, a name, a parameter or a shape."""
    sig = {
        f: draw(st.lists(st.sampled_from(PARAMS), min_size=1, max_size=2, unique=True))
        for f in draw(st.lists(st.sampled_from(FUNS), min_size=1, max_size=2, unique=True))
    }
    graphs = []
    for i in range(draw(st.integers(0, 3))):
        source, target = draw(st.sampled_from(list(sig))), draw(st.sampled_from(list(sig)))
        ends = st.tuples(st.sampled_from(sig[source]), st.sampled_from(sig[target]))
        arcs = [
            {"from": s, "kind": draw(st.sampled_from(["strict", "nonstrict"])), "to": t}
            for s, t in draw(st.lists(ends, max_size=3, unique=True))
        ]
        graphs.append({"name": f"g{i}", "source": source, "target": target, "arcs": arcs})
    data = {"functions": [{"name": f, "params": p} for f, p in sig.items()], "graphs": graphs}
    if draw(st.booleans()):
        *parent, key = draw(st.sampled_from(paths(data)[1:]))
        node = data
        for k in parent:
            node = node[k]
        node[key] = draw(st.sampled_from(["f", "g0", "h", "x", "z", "weak", 1, -1, [], {}, None]))
    return data


@FUZZ
@given(
    json_values | graph_sets(),
    st.sampled_from([["graphs", "check"], ["graphs", "check", "--oracle", "3"], ["synth"]]),
)
def test_graph_set_commands(workdir, data, command):
    path = workdir / "graphs.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert_contract([*command, str(path)])


# --- files that are not UTF-8 -------------------------------------------------

# each command's arguments, with {} for the file
NOT_UTF8 = {
    "analyze": ["analyze", "{}"],
    "run": ["run", "{}", "f", "1"],
    "synth": ["synth", "{}"],
    "graphs-check": ["graphs", "check", "{}"],
    "oracle": ["oracle", "{}", "--max-word-len", "2"],
}


@pytest.mark.parametrize("name", sorted(NOT_UTF8))
def test_file_that_is_not_utf8_exits_2_naming_it(workdir, name):
    path = workdir / "latin1.in"
    path.write_bytes(b"\xff(x) = x\n")
    argv = [arg.format(path) for arg in NOT_UTF8[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert "can't decode byte 0xff" in lines[0]


# --- pair-colouring files -----------------------------------------------------

BAD_PAIR_COLORINGS = {
    # a float k once reached star_search and exited 3 with a TypeError
    "float-k": '{"k": 2.0, "n": 4, "rows": [[0, 0, 1], [0, 1], [1]]}',
    # a float colour once passed the range check, and the search exited 0
    "float-color": '{"k": 2, "n": 4, "rows": [[0, 0, 1.5], [0, 1.5], [1.5]]}',
    # the decoder recurses once per nested array and once exited 3
    "nested": "[" * 100_000 + "]" * 100_000,
    # a row longer than n allows, and an extra row, were once read without complaint
    "long-row": '{"k": 2, "n": 3, "rows": [[0, 1, 1, 1], [0]]}',
    "extra-row": '{"k": 2, "n": 3, "rows": [[0, 1], [0], [5]]}',
    # a top-level array once printed Python's own TypeError message
    "array": "[[0, 1], [0]]",
    "not-utf8": b'{"k": 2, "n": 2, "rows": [[0]], "\xff": 0}',
}
# files that cannot be read at all: "cannot read PATH: reason"
UNREADABLE = ("directory", "missing")


@pytest.mark.parametrize("name", sorted(BAD_PAIR_COLORINGS) + list(UNREADABLE))
def test_bad_pair_coloring_file_exits_2(workdir, name):
    path = workdir / f"{name}.json"
    if name == "directory":
        path.mkdir()
    elif name != "missing":
        content = BAD_PAIR_COLORINGS[name]
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["principles", "star", "--n", "4", "--pattern", "file", "--file", str(path)])
    assert (code, out.getvalue()) == (2, "")
    lines = err.getvalue().splitlines()
    prefix = f"error: cannot read {path}: " if name in UNREADABLE else f"error: {path}: "
    assert len(lines) == 1 and lines[0].startswith(prefix)


# --- numbers past int()'s digit limit -------------------------------------------

def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_run_prints_a_value_past_the_digit_limit(workdir):
    # f(14) = 2^(2^14), 4,933 digits; each repeated call is reused, so the run is short
    path = workdir / "square.sct"
    path.write_text("f(x) = if x=0 then 2 else times(f(x-1), f(x-1))", encoding="utf-8")
    code, out, err = run_main(["run", str(path), "f", "14"])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(2 ** 2**14)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) > limit
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "function": "f",\n  "args": [\n    14\n  ],\n  "fuel": 1000000,\n'
        f'  "value": {digits}\n}}\n'
    )


@pytest.mark.parametrize("text, col", [("f(x) = {}", 8), ("f(x) = if x={} then 1 else 0", 13)])
def test_program_literal_past_the_digit_limit(workdir, text, col):
    text = "# a long literal\n" + text.format("9" * 5000)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert (info.value.line, info.value.col) == (2, col)
    path = workdir / "literal.sct"
    path.write_text(text, encoding="utf-8")
    assert run_main(["analyze", str(path)]) == \
        (2, "", f"error: {path}: 2:{col}: number has more than {limit} digits\n")


# each command that reads JSON, with {} for the file
JSON_INPUTS = {
    "graphs-check": ["graphs", "check", "{}"],
    "synth": ["synth", "{}"],
    "oracle": ["oracle", "{}", "--max-word-len", "2"],
    "star": ["principles", "star", "--n", "2", "--pattern", "file", "--file", "{}"],
}


@pytest.mark.parametrize("name", sorted(JSON_INPUTS))
def test_json_number_past_the_digit_limit(workdir, name):
    path = workdir / "long-number.json"
    path.write_text('{"k": 2, "n": 2, "rows": [[' + "1" * 5000 + "]]}", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    message = f"error: {path}: /: invalid JSON: a number has more than {limit} digits\n"
    assert run_main([arg.format(path) for arg in JSON_INPUTS[name]]) == (2, "", message)
