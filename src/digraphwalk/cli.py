"""Command-line interface.

Subcommands: build (operator dumps), spectrum (mapping and eigensolver
routes), supports (squared-walk supports and trace report), tables
(enumeration tables with published-value verification), verify (invariant
sweeps).  Exit codes: 0 success, 2 precondition violation, 3 verification
mismatch, 4 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cyclotomic import Angle
from .digraph import Digraph, PreconditionError, from_compact_code, make_Y, parse_arc_list
from .enumeration import DIGRAPH_CLASS_COUNTS
from .operators import (
    build_C,
    build_D_theta,
    build_F,
    build_H_eta,
    build_H_tilde,
    build_K,
    build_R,
    build_S,
    build_S_theta,
    build_U_grover,
    build_U_theta,
)
from .spectra import spectra_match, spectrum_U_oracle, spectrum_U_via_mapping
from .supports import digon_count_via_trace, power_support, verify_square_support_formula
from .tables import STANDARD_TABLES, classify, emit_table, verify_against_published

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3
EXIT_PARSE = 4


class ParseFailure(Exception):
    pass


def _add_graph_options(p: argparse.ArgumentParser):
    src = p.add_argument_group("graph input")
    src.add_argument("--arcs", help="arc list, e.g. 'n=4; 0->1; 1->0; 2<->3'")
    src.add_argument("--arcs-file", help="file containing an arc list")
    src.add_argument("--code", help="compact base-4 code over the vertex-pair order")
    src.add_argument("--order-hint", type=int, default=None,
                     help="vertex count for --code (inferred from length otherwise)")
    src.add_argument("--family", help="family spec: 'Y a n', 'K n' or 'E n'")


def _parse_graph(args) -> Digraph:
    given = [x for x in (args.arcs, args.arcs_file, args.code, args.family) if x]
    if len(given) != 1:
        raise ParseFailure("provide exactly one of --arcs, --arcs-file, --code, --family")
    try:
        if args.arcs:
            return parse_arc_list(args.arcs)
        if args.arcs_file:
            with open(args.arcs_file) as fh:
                return parse_arc_list(fh.read())
        if args.code:
            return from_compact_code(args.code, args.order_hint)
        tokens = args.family.replace(",", " ").split()
        kind = tokens[0].upper()
        if kind == "Y" and len(tokens) == 3:
            a, n = int(tokens[1]), int(tokens[2])
            return make_Y(a, n)
        if kind == "K" and len(tokens) == 2:
            return make_Y(0, int(tokens[1]))
        if kind == "E" and len(tokens) == 2:
            return Digraph(int(tokens[1]), frozenset())
        raise ParseFailure(f"unrecognized family spec {args.family!r}")
    except ParseFailure:
        raise
    except PreconditionError:
        raise
    except (OSError, ValueError) as exc:
        raise ParseFailure(str(exc)) from exc


def _parse_eta(text: str) -> Angle:
    try:
        return Angle.parse(text)
    except ValueError as exc:
        raise ParseFailure(f"bad --eta {text!r}: {exc}") from exc


_OPERATORS = {
    "K": lambda g, eta: build_K(g),
    "C": lambda g, eta: build_C(g),
    "S": lambda g, eta: build_S(g),
    "Stheta": build_S_theta,
    "Dtheta": build_D_theta,
    "Utheta": build_U_theta,
    "U": lambda g, eta: build_U_grover(g),
    "Heta": build_H_eta,
    "Htilde": build_H_tilde,
    "R": lambda g, eta: build_R(g),
    "Ft": lambda g, eta: build_F(g)[0],
    "Fo": lambda g, eta: build_F(g)[1],
}


_FLOAT_ETA_OPS = ("Utheta", "Htilde")


def cmd_build(args) -> int:
    g = _parse_graph(args)
    names = [s.strip() for s in args.ops.split(",") if s.strip()]
    for name in names:
        if name not in _OPERATORS:
            raise ParseFailure(f"unknown operator {name!r}; choose from {sorted(_OPERATORS)}")
    out = []
    if args.float_eta is not None:
        from .spectra import build_H_tilde_float, build_U_theta_float

        builders = {"Utheta": build_U_theta_float, "Htilde": build_H_tilde_float}
        for name in names:
            if name not in _FLOAT_ETA_OPS:
                raise ParseFailure(
                    f"--float-eta supports only {_FLOAT_ETA_OPS}; "
                    f"exact angles (--eta p/q) cover everything else")
            arr = builders[name](g, args.float_eta)
            out.append(f"# {name}  (floating angle {args.float_eta})")
            out.append("\n".join("  ".join(f"{v:.6g}" for v in row) for row in arr))
            out.append("")
        print("\n".join(out).rstrip())
        return EXIT_OK
    eta = _parse_eta(args.eta)
    for name in names:
        mat = _OPERATORS[name](g, eta)
        out.append(f"# {name}  ({mat.row_space.kind} x {mat.col_space.kind}, "
                   f"{mat.shape[0]}x{mat.shape[1]})")
        out.append(mat.render_text(floats=args.floats))
        out.append("")
    print("\n".join(out).rstrip())
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g = _parse_graph(args)
    if args.float_eta is not None:
        if args.route != "eigen":
            raise PreconditionError(
                "a floating angle has no exact closed-path classification; "
                "only --route eigen is available")
        from .spectra import spectrum_U_float

        print(json.dumps({"eigensolver": json.loads(spectrum_U_float(g, args.float_eta).to_json())},
                         indent=2))
        return EXIT_OK
    eta = _parse_eta(args.eta)
    route = args.route
    result = {}
    if route in ("mapping", "both"):
        sm = spectrum_U_via_mapping(g, eta)
        result["mapping"] = json.loads(sm.to_json())
    if route in ("eigen", "both"):
        so = spectrum_U_oracle(g, eta)
        result["eigensolver"] = json.loads(so.to_json())
    print(json.dumps(result, indent=2))
    if route == "both":
        if not spectra_match(sm, so, tol=1e-8):
            print("route mismatch beyond 1e-8", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_supports(args) -> int:
    g = _parse_graph(args)
    eta = _parse_eta(args.eta)
    signs = [s.strip() for s in args.sign.split(",") if s.strip()]
    for s in signs:
        sup = power_support(g, eta, args.power, s)
        print(f"# support power={args.power} sign={s} eta={eta}")
        print(sup.grid_text())
    if args.power == 2 and "+" in signs:
        half_trace = digon_count_via_trace(g, eta)
        print(json.dumps({"half_trace_positive_square": half_trace}))
    if args.verify_square:
        rep = verify_square_support_formula(g, eta)
        print(rep.summary())
        if not rep.holds:
            return EXIT_MISMATCH
    return EXIT_OK


def _order_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    orders = list(range(int(lo), int(hi if sep else lo) + 1))
    if not orders:
        raise ValueError("empty or descending range")
    return orders


def _at_least(lo: int):
    """argparse type: an integer no smaller than lo."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return integer


def cmd_tables(args) -> int:
    if args.table != "all" and args.table not in STANDARD_TABLES and not args.functor:
        raise ParseFailure(f"unknown table {args.table!r}; choose from "
                           f"{sorted(STANDARD_TABLES)} or 'all', or give --functor")
    try:
        orders = _order_range(args.order)
    except ValueError as exc:
        raise ParseFailure(f"bad --order {args.order!r}: {exc}") from exc
    # refuse the whole range before classing any of it
    outside = [n for n in orders if n not in DIGRAPH_CLASS_COUNTS]
    if outside:
        raise PreconditionError(f"classing supports orders 2..6, got {outside}")
    if args.functor:
        eta = _parse_eta(args.eta) if args.functor in ("Heta", "U2plus") else None
        selected = {args.functor: (args.functor, eta)}
    elif args.table == "all":
        selected = dict(STANDARD_TABLES)
    else:
        selected = {args.table: STANDARD_TABLES[args.table]}
    mismatches: list[str] = []
    chunks = []
    for table_id, (functor, eta) in selected.items():
        tables = []
        for n in orders:
            t = classify(n, functor, eta, jobs=args.jobs)
            tables.append(t)
            if args.verify_paper and table_id in STANDARD_TABLES:
                mismatches.extend(verify_against_published(table_id, t))
        chunks.append(emit_table(tables, args.format))
    text = "\n".join(chunks)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text)
    if args.verify_paper:
        if mismatches:
            for line in mismatches:
                print("MISMATCH:", line, file=sys.stderr)
            return EXIT_MISMATCH
        print(f"verified against published values: "
              f"{len(selected)} table(s), orders {orders}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_invariant_sweeps

    failures = run_invariant_sweeps(max_order=args.max_order, report=print)
    return EXIT_MISMATCH if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="digraphwalk",
                                description="Quantum-walk operators, spectra, supports "
                                            "and cospectral tables for digraphs.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="print walk-operator matrices")
    _add_graph_options(b)
    b.add_argument("--eta", default="1/2", help="angle as a fraction of pi (default 1/2)")
    b.add_argument("--float-eta", type=float, default=None,
                   help="arbitrary real angle; floating path only")
    b.add_argument("--ops", default="Utheta",
                   help=f"comma list from {sorted(_OPERATORS)}")
    b.add_argument("--floats", action="store_true", help="print floating entries")
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("spectrum", help="transfer-matrix spectrum")
    _add_graph_options(s)
    s.add_argument("--eta", default="1/2")
    s.add_argument("--float-eta", type=float, default=None,
                   help="arbitrary real angle; eigensolver route only")
    s.add_argument("--route", choices=("mapping", "eigen", "both"), default="mapping")
    s.set_defaults(func=cmd_spectrum)

    u = sub.add_parser("supports", help="supports of transfer-matrix powers")
    _add_graph_options(u)
    u.add_argument("--eta", default="1/2")
    u.add_argument("--power", type=int, default=2)
    u.add_argument("--sign", default="+", help="'+', '-' or '+,-'")
    u.add_argument("--verify-square", action="store_true",
                   help="check the three-regime square-support formula")
    u.set_defaults(func=cmd_supports)

    t = sub.add_parser("tables", help="cospectral classification tables")
    t.add_argument("--order", default="2-5", help="single order or range like 2-5")
    t.add_argument("--table", default="all",
                   help=f"one of {sorted(STANDARD_TABLES)} or 'all'")
    t.add_argument("--functor", choices=("A", "H", "Heta", "U2plus"),
                   help="class by an explicit functor instead of a named table")
    t.add_argument("--eta", default="1/2", help="angle for Heta/U2plus functors")
    t.add_argument("--format", choices=("csv", "json", "markdown"), default="markdown")
    t.add_argument("--jobs", type=_at_least(1), default=1,
                   help="worker processes for classing, one base (underlying graph) "
                        "at a time; an order-6 column takes 13 to 16 s with one, "
                        "about half that with two")
    t.add_argument("--verify-paper", action="store_true",
                   help="compare every cell against the published values")
    t.add_argument("--output", help="write tables to a file instead of stdout")
    t.set_defaults(func=cmd_tables)

    v = sub.add_parser("verify", help="run the invariant sweeps")
    v.add_argument("--max-order", type=_at_least(2), default=3,
                   help="largest digraph order in the sweeps (default 3)")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; report as parse error
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
