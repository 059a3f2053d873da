"""Command-line front end.

Subcommands read JSON from files (or "-" for stdin) and write JSON, CSV
or SVG to stdout or ``--out``. Exit codes: 0 success, 1 domain errors
or failed verification, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import jsonio
from .bodies import difference_body, lift_set
from .covering import bounds_table, greedy_cover
from .errors import BorsukError, InvalidInput
from .metric import diameter_graph, gauge
from .partition import borsuk_number
from .svgplot import render_svg
from .verify import SUITES, run_verify_suite


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise InvalidInput(f"{path}: not valid JSON: {exc}") from None


def _write_text(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _load_body(path: str):
    return jsonio.body_from_obj(_read_json(path))


def _cmd_gauge(args) -> int:
    C = _load_body(args.body)
    points = []
    if args.points:
        points.extend(jsonio.pointset_from_obj(_read_json(args.points)).points)
    for text in args.point or []:
        points.append(jsonio.parse_rational_point(text))
    if not points:
        raise BorsukError("give at least one --point or a --points file")
    values = [jsonio.format_rational(gauge(C, p)) for p in points]
    _write_text(jsonio.dumps({"values": values}), args.out)
    return 0


def _cmd_diameter(args) -> int:
    C = _load_body(args.body)
    S = jsonio.pointset_from_obj(_read_json(args.points))
    G = diameter_graph(C, S)
    _write_text(jsonio.dumps(jsonio.graph_to_obj(G)), args.out)
    return 0


def _cmd_borsuk(args) -> int:
    C = _load_body(args.body)
    S = jsonio.pointset_from_obj(_read_json(args.points))
    t0 = time.perf_counter()
    cert = borsuk_number(C, S)
    elapsed = time.perf_counter() - t0 if args.timings else None
    _write_text(jsonio.dumps(jsonio.certificate_to_obj(cert, elapsed)), args.out)
    return 0


def _cmd_diffbody(args) -> int:
    K = jsonio.polytope_from_obj(_read_json(args.polytope))
    D = difference_body(K)
    _write_text(jsonio.dumps(jsonio.body_to_obj(D)), args.out)
    return 0


def _cmd_lift(args) -> int:
    if bool(args.polytope) == bool(args.points):
        raise BorsukError("give exactly one of --polytope or --points")
    if args.polytope:
        K = jsonio.polytope_from_obj(_read_json(args.polytope))
        _write_text(jsonio.dumps(jsonio.lifted_body_to_obj(K)), args.out)
    else:
        S = jsonio.pointset_from_obj(_read_json(args.points))
        _write_text(jsonio.dumps(jsonio.pointset_to_obj(lift_set(S))), args.out)
    return 0


def _cmd_cover(args) -> int:
    K = jsonio.polytope_from_obj(_read_json(args.polytope))
    cov = greedy_cover(K, jsonio.parse_rational(args.ratio), jsonio.parse_rational(args.grid_step))
    _write_text(jsonio.dumps(jsonio.covering_to_obj(cov)), args.out)
    return 0


def _cmd_bounds(args) -> int:
    rows = bounds_table(args.n_min, args.n_max)
    if args.format == "csv":
        lines = ["n,partition_bound,covering_bound,binomial_bound"]
        for n, part, cov, bino in rows:
            lines.append(f"{n},{part!r},{cov!r},{bino!r}")
        _write_text("\n".join(lines) + "\n", args.out)
    else:
        obj = [
            {"n": n, "partition_bound": part, "covering_bound": cov, "binomial_bound": bino}
            for n, part, cov, bino in rows
        ]
        _write_text(jsonio.dumps(obj), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify_suite(args.suite, args.count, args.seed)
    _write_text(jsonio.dumps(report.to_obj()), args.out)
    return 0 if report.passed else 1


def _cmd_plot2d(args) -> int:
    C = _load_body(args.body)
    S = jsonio.pointset_from_obj(_read_json(args.points))
    P = jsonio.partition_from_obj(_read_json(args.partition))
    _write_text(render_svg(C, S, P), args.out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared
    by every call, so callers must not change it. Each parse fills a new
    namespace, so nothing carries over from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="borsuk",
        description="Exact partition numbers, gauge norms and coverings of polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output file (default stdout)")
        return p

    p = add("gauge", _cmd_gauge, "evaluate a body's norm at points")
    p.add_argument("--body", required=True, help="symmetric body JSON")
    p.add_argument("--points", help="point set JSON file")
    p.add_argument("--point", action="append", help='single point as JSON, e.g. \'["1/2","3"]\'')

    p = add("diameter", _cmd_diameter, "exact diameter graph of a point set")
    p.add_argument("--body", required=True)
    p.add_argument("--points", required=True)

    p = add("borsuk", _cmd_borsuk, "exact partition number with certificate")
    p.add_argument("--body", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--timings", action="store_true", help="include wall time in stats")

    p = add("diffbody", _cmd_diffbody, "difference body of a polytope")
    p.add_argument("--polytope", required=True)

    p = add("lift", _cmd_lift, "symmetric lift of a polytope or point set")
    p.add_argument("--polytope")
    p.add_argument("--points")

    p = add("cover", _cmd_cover, "greedy cover by smaller homothets")
    p.add_argument("--polytope", required=True)
    p.add_argument("--ratio", required=True, help="shrink ratio in (0,1), e.g. 3/5")
    p.add_argument("--grid-step", required=True, help="lattice spacing, e.g. 1/4")

    p = add("bounds", _cmd_bounds, "tabulate the closed-form bounds")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("verify", _cmd_verify, "run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--count", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = add("plot2d", _cmd_plot2d, "SVG figure of a planar instance")
    p.add_argument("--body", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--partition", required=True, help="partition or certificate JSON")

    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BorsukError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
