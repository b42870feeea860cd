"""Load and dump the graph-set and verdict JSON formats.

Graph-set shape:

    {"functions": [{"name": "A", "params": ["x", "y"]}],
     "graphs": [{"name": "G01", "source": "A", "target": "A",
                 "arcs": [{"from": "x", "kind": "strict", "to": "x"}]}]}

Schema violations are reported with JSON-pointer paths.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from .graphs import FunSig, GraphSet, SizeChangeGraph, Verdict

if TYPE_CHECKING:  # only annotations name them, so no subcommand loads their modules for them
    from .colorings import PairColoring
    from .oracle import OracleReport


class SchemaError(ValueError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer
        self.message = message


def _need(data, key, kind, pointer):
    if not isinstance(data, dict):
        raise SchemaError(pointer, "expected an object")
    if key not in data:
        raise SchemaError(pointer, f"missing key {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{pointer}/{key}", f"expected {kind.__name__}")
    return value


def _build(pointer, make, *args):
    """Call a constructor that owns a rule; its ValueError becomes a SchemaError at pointer."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from None


def load_graph_set(data: dict) -> GraphSet:
    functions = _need(data, "functions", list, "")
    graphs_json = _need(data, "graphs", list, "")
    by_name: dict[str, FunSig] = {}
    for i, f in enumerate(functions):
        ptr = f"/functions/{i}"
        name = _need(f, "name", str, ptr)
        params = _need(f, "params", list, ptr)
        if not all(isinstance(p, str) for p in params):
            raise SchemaError(f"{ptr}/params", "expected a nonempty array of strings")
        sig = _build(f"{ptr}/params", FunSig, name, tuple(params))
        if name in by_name:
            raise SchemaError(f"{ptr}/name", f"duplicate function {name!r}")
        by_name[name] = sig
    graphs: list[SizeChangeGraph] = []
    names: list[str] = []
    for i, g in enumerate(graphs_json):
        ptr = f"/graphs/{i}"
        if not isinstance(g, dict):
            raise SchemaError(ptr, "expected an object")
        name = g.get("name", f"g{i}")
        if not isinstance(name, str):
            raise SchemaError(f"{ptr}/name", "expected str")
        source = _need(g, "source", str, ptr)
        target = _need(g, "target", str, ptr)
        if source not in by_name:
            raise SchemaError(f"{ptr}/source", f"unknown function {source!r}")
        if target not in by_name:
            raise SchemaError(f"{ptr}/target", f"unknown function {target!r}")
        src_sig, tgt_sig = by_name[source], by_name[target]
        triples = []
        seen: set[tuple[str, str]] = set()
        for j, arc in enumerate(_need(g, "arcs", list, ptr)):
            aptr = f"{ptr}/arcs/{j}"
            frm = _need(arc, "from", str, aptr)
            kind = _need(arc, "kind", str, aptr)
            to = _need(arc, "to", str, aptr)
            src = _build(f"{aptr}/from", src_sig.index_of, frm)
            tgt = _build(f"{aptr}/to", tgt_sig.index_of, to)
            if kind not in ("strict", "nonstrict"):
                raise SchemaError(f"{aptr}/kind", "expected \"strict\" or \"nonstrict\"")
            if (frm, to) in seen:
                raise SchemaError(aptr, f"second arc between {frm!r} and {to!r}")
            seen.add((frm, to))
            triples.append((src, kind == "strict", tgt))
        graphs.append(SizeChangeGraph._of_triples(src_sig, tgt_sig, triples))
        names.append(name)
    return _build("/graphs", GraphSet, tuple(by_name.values()), tuple(graphs), tuple(names))


def _load_file(path: Union[str, Path]):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise SchemaError("", f"invalid JSON: {exc}") from None
        except RecursionError:  # the decoder recurses once per nested array or object
            raise SchemaError("", "invalid JSON: nested too deeply") from None
        except ValueError:  # int() refuses a number past its digit limit, which stays in force
            limit = sys.get_int_max_str_digits()
            raise SchemaError("", f"invalid JSON: a number has more than {limit} digits") from None


def load_graph_set_file(path: Union[str, Path]) -> GraphSet:
    return load_graph_set(_load_file(path))


def load_pair_coloring_file(path: Union[str, Path]) -> PairColoring:
    """{"k": k, "n": n, "rows": rows}: n - 1 rows, row i the colors of (i, i+1) .. (i, n-1)."""
    from .colorings import PairColoring

    data = _load_file(path)
    k, n = _need(data, "k", int, ""), _need(data, "n", int, "")
    rows = _need(data, "rows", list, "")
    count = max(n - 1, 0)  # PairColoring rejects n < 1 itself
    if len(rows) != count:
        raise SchemaError("/rows", f"expected {count} rows for n = {n}, got {len(rows)}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n - 1 - i:
            raise SchemaError(f"/rows/{i}", f"expected an array of length {n - 1 - i}")
    return _build("", PairColoring.from_function, k, n, lambda i, j: rows[i][j - i - 1])


def graph_to_json(g: SizeChangeGraph, name: Optional[str] = None) -> dict:
    out: dict = {}
    if name is not None:
        out["name"] = name
    out["source"] = g.source.name
    out["target"] = g.target.name
    out["arcs"] = [
        {
            "from": g.source.params[a.src],
            "kind": a.kind.value,
            "to": g.target.params[a.tgt],
        }
        for a in g.arcs
    ]
    return out


def graph_set_to_json(gs: GraphSet) -> dict:
    return {
        "functions": [{"name": s.name, "params": list(s.params)} for s in gs.sigs],
        "graphs": [graph_to_json(g, name) for g, name in zip(gs.graphs, gs.names)],
    }


def verdict_to_json(verdict: Verdict, gs: GraphSet) -> dict:
    out: dict = {"sct": verdict.sct}
    if not verdict.sct:
        failing = graph_to_json(verdict.failing_idempotent.graph)
        failing["witness"] = gs.word_names(verdict.failing_idempotent.witness)
        out["failing_idempotent"] = failing
        out["lasso"] = {
            "prefix": gs.word_names(verdict.lasso.prefix),
            "period": gs.word_names(verdict.lasso.period),
        }
    return out


def oracle_report_to_json(report: OracleReport, gs: GraphSet) -> dict:
    out: dict = {
        "max_word_len": report.max_len,
        "words_checked": report.words_checked,
    }
    if report.counterexample is None:
        out["counterexample"] = None
    else:
        out["counterexample"] = {
            "period": gs.word_names(report.counterexample.period),
        }
    return out


def dumps(data: dict) -> str:
    """``json.dumps(data, indent=2) + "\\n"``, byte for byte, without the pure-Python encoder.

    CPython encodes with ``indent`` in Python, one generator per container;
    this writer lays out dicts, lists and tuples itself and encodes strings
    with the C helper ``json.dumps`` uses under ``ensure_ascii``.  Any other
    leaf goes to ``json.dumps``, so its text (or its ``TypeError``) is the
    same; a key that is not a ``str`` is a ``TypeError``.
    """
    parts: list[str] = []
    _write(data, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _long_int_text(n: int, width: int = 0) -> str:
    """n in decimal, zero-padded to width, in halves short enough for str()."""
    if n < 0:
        return "-" + _long_int_text(-n)
    if n.bit_length() <= 8192:  # at most 2,467 digits
        return str(n).zfill(width)
    half = n.bit_length() * 3 // 20  # about half of n's digits: log10(2) > 3/10
    high, low = divmod(n, 10**half)
    return _long_int_text(high, width - half) + _long_int_text(low, half)


def _write(value, newline: str, put) -> None:
    """Put the indent-2 text of value, whose line breaks are followed by newline's indent."""
    if isinstance(value, str):
        put(_encode_str(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        try:
            put(int.__repr__(value))
        except ValueError:  # past the digit limit of int-to-str conversion
            put(_long_int_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            sep = "," + inner
            _write(item, inner, put)
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + _encode_str(key) + ": ")
            sep = "," + inner
            _write(item, inner, put)
        put(newline + "}")
    else:
        put(json.dumps(value))
