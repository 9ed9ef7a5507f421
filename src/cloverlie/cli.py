"""Command-line interface.

Subcommands: ``growth`` (exact growth tables), ``basis`` (closure
verification suites), ``gk`` (closed-form growth exponents and density
scans), ``nil`` (seeded p-power chain sampling), ``bounds`` (certified
finite-weight bound chains), ``fit`` (diagnostic exponent fits from a
saved table).  Exit code 0 means every requested check passed, 1 means
some check failed, 2 means the invocation or configuration was invalid.
"""

from __future__ import annotations

import argparse
import sys

from .analytics import (
    check_growth_sandwich,
    check_quasilinear_bounds,
    estimate_exponent,
    gk_density_scan,
    gk_periodic,
)
from .closure import (
    relation_suite,
    sample_nil_chains,
    verify_basis_theorem,
    verify_grading,
)
from .monomials import GrowthTable, growth_table
from .params import ParameterTuple

_TUPLE_HELP = (
    "generation rule: constant:S,R | periodic:S0,R0;S1,R1;... | "
    "kappa:K | qkappa:q,K | explicit:S0,R0;..."
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cloverlie",
        description=(
            "Exact computer algebra for the 3-generated restricted Lie "
            "algebras of special derivations of truncated divided power "
            "algebras over F_p."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("growth", help="compute an exact growth table")
    g.add_argument("--p", type=int, required=True, help="the prime p")
    g.add_argument("--tuple", dest="tuple_spec", required=True, help=_TUPLE_HELP)
    g.add_argument("--max-weight", type=int, required=True)
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    g.add_argument("--out", help="write the table here instead of stdout")

    b = sub.add_parser("basis", help="closure dimensions and verification suites")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--tuple", dest="tuple_spec", required=True, help=_TUPLE_HELP)
    b.add_argument("--depth", type=int, required=True, help="truncation depth N")
    b.add_argument(
        "--check",
        action="store_true",
        help="run the basis, grading and relation suites (exit 1 on failure)",
    )

    k = sub.add_parser("gk", help="closed-form growth exponents")
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--S", type=int, help="constant rule: S")
    k.add_argument("--R", type=int, help="constant rule: R")
    k.add_argument("--tuple", dest="tuple_spec", help=_TUPLE_HELP)
    k.add_argument("--scan", action="store_true", help="scan the (S, R) grid")
    k.add_argument("--max", type=int, help="grid bound for --scan (S, R <= max)")
    k.add_argument(
        "--interval",
        help="target interval a,b for the density gap statistic of --scan (default 1.1,2.9)",
    )

    n = sub.add_parser("nil", help="seeded p-power chain sampling")
    n.add_argument("--p", type=int, required=True)
    n.add_argument("--tuple", dest="tuple_spec", required=True, help=_TUPLE_HELP)
    n.add_argument("--depth", type=int, required=True)
    n.add_argument("--samples", type=int, required=True)
    n.add_argument("--seed", type=int, required=True, help="PRNG seed (mandatory)")
    n.add_argument("--max-terms", type=int, default=5)

    bd = sub.add_parser("bounds", help="certified finite-weight bound chains")
    bd.add_argument("--p", type=int, required=True)
    bd.add_argument("--tuple", dest="tuple_spec", required=True, help=_TUPLE_HELP)
    bd.add_argument("--max-weight", type=int, required=True)

    f = sub.add_parser("fit", help="diagnostic exponent fit from a saved table")
    f.add_argument("--in", dest="table_path", required=True, help="CSV table path")
    f.add_argument("--level", required=True, help="'gk' or a nonnegative integer")

    return ap


def _cmd_growth(args) -> int:
    tup = ParameterTuple.from_spec(args.p, args.tuple_spec)
    # built first, so that a refused table leaves no file and stdout empty
    table = growth_table(tup, args.max_weight)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(table._text(args.format))
        print(f"wrote {len(table.ms)} rows to {args.out}")
    else:
        sys.stdout.writelines(table._text(args.format))
    return 0


def _cmd_basis(args) -> int:
    tup = ParameterTuple.from_spec(args.p, args.tuple_spec)
    if not args.check:
        bound = tup.trusted_weight_bound(args.depth)
        # built first, so that a refused table leaves stdout empty
        table = growth_table(tup, bound)
        print(f"trusted weight bound at depth {args.depth}: {bound}")
        sys.stdout.writelines(table._text("csv"))
        return 0
    reports = [
        verify_basis_theorem(tup, args.depth),
        verify_grading(tup, args.depth),
        relation_suite(tup, args.depth),
    ]
    for rep in reports:
        print(rep.summary())
    return 0 if all(rep.passed for rep in reports) else 1


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        a, b = (float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"interval must look like 1.1,2.9; got {text!r}") from None
    return a, b


def _cmd_gk(args) -> int:
    constant = args.S is not None or args.R is not None
    if [args.scan, args.tuple_spec is not None, constant].count(True) != 1 or (
        constant and None in (args.S, args.R)
    ):
        raise ValueError("gk takes exactly one mode: --scan, --tuple, or both --S and --R")
    if args.scan:
        if args.max is None:
            raise ValueError("gk --scan requires --max")
        interval = _parse_interval("1.1,2.9" if args.interval is None else args.interval)
        scan = gk_density_scan(args.p, args.max, args.max, interval)
        print(
            f"grid S,R <= {args.max} at p={args.p}: {len(scan.entries)} exponents "
            f"in [{scan.lambda_min:.6f}, {scan.lambda_max:.6f}]"
        )
        print(f"certified inside [1, 3]: {scan.all_in_range}")
        print(
            f"max uncovered stretch on [{interval[0]}, {interval[1]}]: "
            f"{scan.max_gap:.6f}"
        )
        return 0 if scan.all_in_range else 1
    if args.max is not None or args.interval is not None:
        raise ValueError("--max and --interval apply only to gk --scan")
    if constant:
        tup = ParameterTuple.constant(args.p, args.S, args.R)
    else:
        tup = ParameterTuple.from_spec(args.p, args.tuple_spec)
    print(gk_periodic(tup).describe())
    return 0


def _cmd_nil(args) -> int:
    tup = ParameterTuple.from_spec(args.p, args.tuple_spec)
    results = sample_nil_chains(
        tup, args.depth, args.samples, seed=args.seed, max_terms=args.max_terms
    )
    worst = nil = 0
    for i, res in enumerate(results):
        if res.status == "nil":
            nil += 1
            worst = max(worst, res.k)
            print(f"sample {i}: nil, vanishes at p-power exponent {res.k}")
        else:
            print(f"sample {i}: {res.status} ({res.witness})")
    print(
        f"{len(results)} samples: {nil} nil, "
        f"{len(results) - nil} inconclusive, largest exponent {worst}"
    )
    return 0


def _quasilinear_checkpoints(tup: ParameterTuple, max_weight: int) -> list[int]:
    """Pivot-ladder weights, their neighbors and midpoints up to max_weight."""
    ws = {2, max_weight}
    prev = tup.pivot_weight(0)
    n = 1
    while True:
        wt = tup.pivot_weight(n)
        if wt > max_weight:
            mid = (prev + min(wt, 4 * max_weight)) // 2
            if mid <= max_weight:
                ws.add(mid)
            break
        ws.update({wt, wt - 1, wt + 1, (prev + wt) // 2})
        prev = wt
        n += 1
    return sorted(w for w in ws if 2 <= w <= max_weight)


def _cmd_bounds(args) -> int:
    tup = ParameterTuple.from_spec(args.p, args.tuple_spec)
    # the rule picks the suite: only constant and periodic rules have a period
    if tup.period is not None:
        table = growth_table(tup, args.max_weight)
        rep = check_growth_sandwich(tup, table)
    else:
        weights = _quasilinear_checkpoints(tup, args.max_weight)
        table = growth_table(tup, args.max_weight, weights=weights)
        rep = check_quasilinear_bounds(tup, table)
    print(rep.summary())
    return 0 if rep.passed else 1


def _cmd_fit(args) -> int:
    with open(args.table_path) as fh:
        table = GrowthTable.from_csv(fh)
    fit = estimate_exponent(table, args.level)
    print(fit.describe())
    return 0


_COMMANDS = {
    "growth": _cmd_growth,
    "basis": _cmd_basis,
    "gk": _cmd_gk,
    "nil": _cmd_nil,
    "bounds": _cmd_bounds,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError, RecursionError) as exc:
        # the input is out of range for this machine
        print(f"error: {type(exc).__name__} {exc}".rstrip(), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
