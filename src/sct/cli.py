"""Command-line interface.

Exit codes: 0 for a terminating verdict (or plain success), 1 for a definite
non-terminating verdict (never an error) or an out-of-fuel run, 2 for input
errors, 3 for an internal error (one "error: internal error: ..." line on
stderr, never a traceback).  Reports are JSON on stdout and byte-stable for
identical inputs.

Each subcommand imports the modules it uses when it runs, so a process loads
only those: ``graphs check`` never imports the parser or the interpreter.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _read_program(path: str):
    from .parser import SourceError, parse_program

    try:
        return parse_program(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, SourceError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_json(path: str, load):
    """load, a file loader of jsonio, on path; an error names the path."""
    from . import jsonio

    try:
        return load(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except jsonio.SchemaError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write(text: str, out: str | Path | None = None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from None


def _emit(data: dict, out: str | None = None) -> None:
    from . import jsonio

    _write(jsonio.dumps(data), out)


def _verdict_report(gs) -> dict:
    """The criterion's verdict on gs as flat JSON, followed by closure_size."""
    from . import jsonio
    from .graphs import check_sct_criterion, closure

    cl = closure(gs)
    report = jsonio.verdict_to_json(check_sct_criterion(gs, cl), gs)
    report["closure_size"] = len(cl)
    return report


def _emit_checked(out: dict, agrees: bool, code: int) -> int:
    """Emit out, then return code, or 2 if the oracle and the criterion disagree."""
    _emit(out)
    if not agrees:
        print("error: oracle and criterion disagree", file=sys.stderr)
        return 2
    return code


def _cmd_analyze(args) -> int:
    from . import jsonio
    from .extract import Mode, extract_description

    program = _read_program(args.file)
    gs = extract_description(program, Mode(args.mode)).to_graph_set()
    report = {"mode": args.mode, **_verdict_report(gs)}
    report["description"] = jsonio.graph_set_to_json(gs)
    if not report["sct"]:
        report["counterexample"] = {
            "failing_idempotent": report.pop("failing_idempotent"),
            "lasso": report.pop("lasso"),
        }
    _emit(report)
    return 0 if report["sct"] else 1


def _cmd_extract(args) -> int:
    from . import jsonio
    from .extract import Mode, extract_description

    program = _read_program(args.file)
    description = extract_description(program, Mode(args.mode))
    _emit(jsonio.graph_set_to_json(description.to_graph_set()), args.output)
    return 0


def _cmd_synth(args) -> int:
    from . import jsonio
    from .synth import synthesize
    from .syntax import format_program

    program = synthesize(_read_json(args.file, jsonio.load_graph_set_file))
    _write(format_program(program), args.output)
    return 0


def _cmd_run(args) -> int:
    from .interp import OutOfFuel, eval_program

    program = _read_program(args.file)
    report = {"function": args.fun, "args": args.args, "fuel": args.fuel}
    try:
        value = eval_program(program, args.fun, tuple(args.args), args.fuel)
    except OutOfFuel:
        report["out_of_fuel"] = True
        _emit(report)
        return 1
    report["value"] = value
    _emit(report)
    return 0


def _cmd_oracle(args) -> int:
    from . import jsonio
    from .graphs import check_sct_criterion
    from .oracle import bounded_lasso_oracle

    gs = _read_json(args.file, jsonio.load_graph_set_file)
    report = bounded_lasso_oracle(gs, args.max_word_len)
    out = jsonio.oracle_report_to_json(report, gs)
    agrees = True
    if args.compare:
        agrees = check_sct_criterion(gs).sct == (report.counterexample is None)
        out["criterion_agrees"] = agrees
    return _emit_checked(out, agrees, 1 if report.refuted else 0)


def _cmd_graphs_check(args) -> int:
    from . import jsonio
    from .oracle import bounded_lasso_oracle, check_max_len

    if args.oracle is not None:
        check_max_len(args.oracle)  # also when the set turns out empty
    gs = _read_json(args.file, jsonio.load_graph_set_file)
    out = _verdict_report(gs)
    agrees = True
    # an empty set is terminating without a search, so the oracle is skipped
    if args.oracle is not None and gs.graphs:
        report = bounded_lasso_oracle(gs, args.oracle)
        agrees = out["sct"] == (report.counterexample is None)
        out["oracle"] = jsonio.oracle_report_to_json(report, gs)
        out["oracle"]["agrees"] = agrees
    return _emit_checked(out, agrees, 0 if out["sct"] else 1)


def _parse_colors(text: str, what: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of colors") from None


def _cmd_spp_family(args) -> int:
    from . import jsonio
    from .reduction import spp_reduction_family

    _emit(jsonio.graph_set_to_json(spp_reduction_family(args.k)), args.output)
    return 0


def _cmd_reversal(args) -> int:
    from .colorings import EPColoring, spp_witness
    from .graphs import decide_periodic_descent
    from .reduction import build_reversal_multipath, family_signature

    coloring = EPColoring(
        args.k, _parse_colors(args.prefix, "--prefix"), _parse_colors(args.period, "--period")
    )
    run = build_reversal_multipath(coloring)
    witness = decide_periodic_descent(run.lasso, run.graphs)
    _emit(
        {
            "k": args.k,
            "prefix": list(coloring.prefix),
            "period": list(coloring.period),
            "recurring_colors": sorted(spp_witness(coloring)),
            "cycle": {
                "prefix_len": len(run.lasso.prefix),
                "period_len": len(run.lasso.period),
                "distinct_graphs": len(run.graphs),
            },
            "descent": {
                "param": family_signature(args.k).params[witness.params[0]],
                "start": witness.start,
                "block_len": witness.block_len,
            },
        }
    )
    return 0


def _cmd_star(args) -> int:
    from .colorings import PairColoring, star_search

    if args.pattern != "file":
        if args.n is None:
            raise ValueError(f"--pattern {args.pattern} needs --n")
        k = 2 if args.k is None else args.k
        fn = (lambda i, j: (j - i) % k) if args.pattern == "parity" else (lambda i, j: 0)
        coloring = PairColoring.from_function(k, args.n, fn)
    else:
        if args.file is None:
            raise ValueError("--pattern file needs --file")
        from . import jsonio

        coloring = _read_json(args.file, jsonio.load_pair_coloring_file)
        for flag, given, found in (("--n", args.n, coloring.n), ("--k", args.k, coloring.k)):
            if given is not None and given != found:
                raise ValueError(f"{flag} {given} does not match the file's {flag[2:]} = {found}")
    witness = star_search(coloring, args.min_triangles)
    if witness is None:
        _emit({"found": False, "min_triangles": args.min_triangles})
        return 1
    _emit(
        {
            "found": True,
            "center": witness.center,
            "color": witness.color,
            "triangles": len(witness.pairs),
            "pairs": [list(p) for p in witness.pairs],
        }
    )
    return 0


def _cmd_fixtures(args) -> int:
    from . import fixtures

    directory = Path(args.output)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {directory}: {exc.strerror}") from None
    written = []
    for name, content in fixtures.fixture_files().items():
        path = directory / name
        _write(content, path)
        written.append(str(path))
    _emit({"written": written})
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sct", description="size-change termination analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="parse, extract, and run the termination criterion")
    p.add_argument("file")
    p.add_argument("--mode", choices=["guarded", "syntactic"], default="guarded")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("extract", help="write the extracted description as graph-set JSON")
    p.add_argument("file")
    p.add_argument("--mode", choices=["guarded", "syntactic"], default="guarded")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("synth", help="compile a graph set into a program")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("run", help="evaluate a function on natural-number arguments")
    p.add_argument("file")
    p.add_argument("fun")
    p.add_argument("args", nargs="*", type=int)
    p.add_argument("--fuel", type=int, default=10**6)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("oracle", help="bounded cyclic-word counterexample search")
    p.add_argument("file")
    p.add_argument("--max-word-len", type=int, required=True)
    p.add_argument("--compare", action="store_true", help="also run the criterion and check agreement")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("graphs", help="operate on graph-set JSON files")
    gsub = p.add_subparsers(dest="graphs_command", required=True)
    g = gsub.add_parser("check", help="run the termination criterion on a graph set")
    g.add_argument("file")
    g.add_argument("--oracle", type=int, metavar="L", help="cross-check with the bounded oracle")
    g.set_defaults(fn=_cmd_graphs_check)

    p = sub.add_parser("principles", help="combinatorial constructions")
    psub = p.add_subparsers(dest="principle", required=True)
    f = psub.add_parser("spp-family", help="materialize the reduction graph family")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("-o", "--output")
    f.set_defaults(fn=_cmd_spp_family)
    r = psub.add_parser("reversal", help="descent from an eventually periodic coloring")
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--period", required=True, help="comma-separated colors")
    r.add_argument("--prefix", default="", help="comma-separated colors")
    r.set_defaults(fn=_cmd_reversal)
    s = psub.add_parser("star", help="search for an anchored monochromatic triangle pattern")
    s.add_argument("--n", type=int, help="points; with --pattern file, the file's n if given")
    s.add_argument("--k", type=int, help="colors (default 2); with --pattern file, the file's k if given")
    s.add_argument("--pattern", choices=["parity", "constant", "file"], default="parity")
    s.add_argument("--file")
    s.add_argument("--min-triangles", type=int, default=1)
    s.set_defaults(fn=_cmd_star)

    p = sub.add_parser("fixtures", help="write the bundled example files")
    p.add_argument("-o", "--output", default="fixtures")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: a defect, reported without a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
