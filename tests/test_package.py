import ast
import copy
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sct
from sct import colorings, extract, graphs, interp, oracle, parser, record, reduction, syntax
from sct.fixtures import ACKERMANN_SOURCE, ackermann_graph_set
from sct.graphs import Arc, ArcKind, FunSig, GraphSet, LassoMultipath, SizeChangeGraph
from sct.jsonio import dumps, graph_set_to_json
from sct.syntax import And, EqConst, Le, Lt, Not, Or

# the benchmark, its independent reference and the test helpers
OUTSIDE = {"perfbench", "reference", "helpers"}


def test_all_lists_api_names_only():
    assert len(set(sct.__all__)) == len(sct.__all__)
    for name in sct.__all__:
        assert not isinstance(getattr(sct, name), types.ModuleType), name


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            # `from . import x` names the module x in its aliases
            yield from [node.module] if node.module else (a.name for a in node.names)


def test_package_imports_neither_benchmark_nor_tests():
    seen = set()
    for path in Path(sct.__file__).parent.rglob("*.py"):
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            seen.add(name)
            assert name.split(".")[0] not in OUTSIDE, (path.name, name)
    assert {"graphs", "json"} <= seen  # the walk reads real imports


def test_only_graphs_builds_arcs():
    """The row layout is encoded in one place: every other module builds rows."""
    callers = set()
    for path in Path(sct.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "Arc":
                    callers.add(path.name)
    assert callers == {"graphs.py"}  # the walk finds real calls


def stores_of(node, name, scope=()):
    """The scopes (class and function names) that assign attribute name, by statement or by a call
    such as ``object.__setattr__(g, name, value)`` that takes the name as a string."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope += (node.name,)
    if isinstance(node, ast.Attribute) and node.attr == name and not isinstance(node.ctx, ast.Load):
        yield scope
    if isinstance(node, ast.Call) and any(isinstance(a, ast.Constant) and a.value == name for a in node.args):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from stores_of(child, name, scope)


def test_rows_are_the_only_store_of_arcs():
    """``_arcs`` caches the decode of the rows: only the ``arcs`` view assigns it."""
    found = {
        (path.name, scope)
        for path in Path(sct.__file__).parent.rglob("*.py")
        for scope in stores_of(ast.parse(path.read_text(encoding="utf-8")), "_arcs")
    }
    assert found == {("graphs.py", ("SizeChangeGraph", "arcs"))}  # the walk finds the real store


def test_no_assert_statement():
    """Checks are explicit, so that ``python -O`` keeps them."""
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    paths = [*Path(sct.__file__).parent.rglob("*.py"), *scripts.glob("*.py")]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
    assert {"graphs.py", "reversal_sweep.py"} <= {path.name for path in paths}  # the walk reads real files


def test_oracle_takes_no_idempotent_power():
    """The oracle tests cycles on rows and builds no closure, so it stays independent of the criterion."""
    shared = {"SizeChangeGraph", "compose", "idempotent_power"}
    shared |= {"closure", "Closure", "_row_alphabet", "_coder", "check_sct_criterion"}
    assert not shared & set(vars(oracle))


# --- start-up: what a process imports ------------------------------------------

def run_python(code, *args, cwd=None):
    src = str(Path(sct.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return proc.stdout, proc.stderr


# prints the loaded sct modules, and dataclasses if loaded, to stderr
LOADED = (
    "import sys; "
    "print(*sorted(m for m in sys.modules if m.startswith(('sct', 'dataclasses'))), file=sys.stderr)"
)


def test_cli_import_loads_no_submodule():
    _, err = run_python("import sct.cli; " + LOADED)
    assert err.split() == ["sct", "sct.cli"]


def test_graphs_check_loads_only_what_it_uses(tmp_path):
    text = dumps(graph_set_to_json(ackermann_graph_set()))
    (tmp_path / "ack.json").write_text(text, encoding="utf-8")
    out, err = run_python(
        "import sys; from sct.cli import main; main(sys.argv[1:]); " + LOADED,
        "graphs", "check", "ack.json", "--oracle", "4", cwd=tmp_path,
    )
    assert json.loads(out)["sct"] is True
    loaded = set(err.split())
    assert {"sct.graphs", "sct.oracle", "sct.jsonio"} <= loaded
    unused = {
        "sct.parser", "sct.interp", "sct.extract", "sct.synth", "sct.reduction", "sct.colorings",
    }
    assert not loaded & unused
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv",
    [["principles", "reversal", "--k", "2", "--period", "0,1"], ["principles", "spp-family", "--k", "2"]],
    ids=["reversal", "spp-family"],
)
def test_reduction_commands_load_only_what_they_use(argv):
    out, err = run_python("import sys; from sct.cli import main; main(sys.argv[1:]); " + LOADED, *argv)
    assert json.loads(out)
    loaded = set(err.split())
    assert {"sct.colorings", "sct.reduction", "sct.graphs", "sct.jsonio"} <= loaded
    unused = {"sct.parser", "sct.interp", "sct.oracle", "sct.extract", "dataclasses"}
    assert not loaded & unused


@pytest.mark.parametrize(
    "argv, used", [(["run", "ack.sct", "A", "2", "3"], "sct.interp"), (["analyze", "ack.sct"], "sct.extract")]
)
def test_program_commands_load_neither_oracle_nor_dataclasses(tmp_path, argv, used):
    (tmp_path / "ack.sct").write_text(ACKERMANN_SOURCE, encoding="utf-8")
    out, err = run_python(
        "import sys; from sct.cli import main; main(sys.argv[1:]); " + LOADED, *argv, cwd=tmp_path,
    )
    assert json.loads(out)
    loaded = set(err.split())
    assert used in loaded
    assert not loaded & {"sct.oracle", "dataclasses"}


# --- record classes ---------------------------------------------------------------

SIG = FunSig("f", ("x", "y"))
GRAPH = SizeChangeGraph(SIG, SIG, (Arc(0, ArcKind.STRICT, 0),))
GS = GraphSet((SIG,), (GRAPH,), ("g0",))
LASSO = LassoMultipath((0,), (0,))
COND = And(EqConst("x", 0), Or(Lt("x", "y"), Not(Le("y", "x"))))

# one instance's fields per record class
SAMPLES = {
    syntax.Var: ("x",),
    syntax.Const: (3,),
    syntax.Succ: ("x",),
    syntax.Pred: ("y",),
    syntax.PrimOp: ("plus", (syntax.Var("x"), syntax.Const(1))),
    syntax.Call: ("f", (syntax.Pred("x"), syntax.Var("y")), 0),
    EqConst: ("x", 2),
    Lt: ("x", "y"),
    Le: ("y", "x"),
    And: (EqConst("x", 0), Lt("x", "y")),
    Or: (Lt("x", "y"), EqConst("y", 1)),
    Not: (COND,),
    syntax.Cases: ((COND, Lt("x", "y")), (syntax.Var("x"), syntax.Succ("y")), syntax.Const(0)),
    syntax.FunDef: (SIG, syntax.Var("y")),
    syntax.Program: ((syntax.FunDef(SIG, syntax.Var("y")),),),
    FunSig: ("f", ("x", "y")),
    Arc: (1, ArcKind.NONSTRICT, 0),
    GraphSet: ((SIG,), (GRAPH,), ("g0",)),
    LassoMultipath: ((), (0, 0)),
    graphs.DerivedGraph: (GRAPH, (0,)),
    graphs.DescentWitness: ((0,), 1, 2),
    graphs.Verdict: (False, None, LASSO),
    interp.Fuel: (7,),
    interp.Violation: (0, Arc(0, ArcKind.STRICT, 0), (2, 1), (1, 1)),
    interp.SafetyReport: ((), 3, 1),
    oracle.OracleReport: (LASSO, 4, 10),
    parser.Diagnostic: ("unknown parameter 'z'", 1, 9),
    reduction.ReversalRun: (LASSO, GS),
    colorings.EPColoring: (2, (1,), (0, 1)),
    colorings.PairColoring: (2, 3, {(0, 1): 0, (0, 2): 1, (1, 2): 1}),
    colorings.StarWitness: (0, 1, ((1, 2),)),
    extract.Description: ((GRAPH,),),
}
MUTABLE = {interp.Fuel, colorings.PairColoring}


def record_classes():
    for module in (syntax, graphs, interp, oracle, parser, reduction, colorings, extract):
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if getattr(value, "__reduce__", None) is record._reduce:
                    yield value


def test_samples_cover_every_record_class():
    assert set(record_classes()) == set(SAMPLES)


def test_equality_needs_the_same_class():
    assert syntax.Var("x") != syntax.Succ("x") and Lt("x", "y") != Le("x", "y")
    assert syntax.Call("f", ()) == syntax.Call("f", (), -1) != syntax.Call("f", (), 0)


@pytest.mark.parametrize("count", [0, 5])
def test_a_record_has_one_to_four_fields(count):
    cls = type("R", (), {"__annotations__": {f"f{i}": int for i in range(count)}})
    with pytest.raises(TypeError, match=f"a record has 1 to 4 fields, R has {count}"):
        record.record(cls)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_behaviour(cls):
    fields, args = cls.__match_args__, SAMPLES[cls]
    assert len(fields) == len(args)
    a, b = cls(*args), cls(**dict(zip(fields, args)))
    assert a == b and not a != b
    assert tuple(getattr(a, f) for f in fields) == args
    assert repr(a) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, args))})"
    for again in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(again) is cls and again == a
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, fields[0], args[0])
    else:
        assert hash(a) == hash(b) == hash(args)
        with pytest.raises(AttributeError):
            setattr(a, fields[0], args[0])
        with pytest.raises(AttributeError):
            delattr(a, fields[0])
    match a:
        case cls(first):  # noqa: F841 - one positional subpattern, through __match_args__
            assert first is args[0]
        case _:
            raise AssertionError("no match")
