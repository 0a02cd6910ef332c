"""Command-line driver: spectrum tables, bound curves, exact chains,
simulation, and the verification suite.

Exit codes: 0 ok, 1 usage error, 2 verification failure, 3 resource cap.
Rationals are printed as "num/den" and big integers as decimal strings, so
nothing is lost across the wire.  Identical configuration and seed yield
byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import verify as verify_mod
from . import walk as walk_mod
from .errors import (
    EnumerationTooLargeError,
    ExactArithmeticTooLargeError,
    FieldTooLargeError,
    StateSpaceTooLargeError,
    StepRangeTooLargeError,
)
from .field import build_field, field_from_order
from .spectral import spectrum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _frac_str(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(x) if isinstance(x, float) else str(x)


def _resolve_field_args(args):
    if args.q is not None and (args.p is not None or args.k is not None):
        raise ValueError("--q excludes --p and --k")
    if (args.p is None) != (args.k is None):
        raise ValueError("--p needs --k" if args.k is None else "--k needs --p")
    if args.p is not None:
        return build_field(args.p, args.k)
    return field_from_order(2 if args.q is None else args.q)


def _add_field_args(sub):
    sub.add_argument("--n", type=int, required=True, help="half-dimension n")
    sub.add_argument("--q", type=int, default=None, help="field size (prime power)")
    sub.add_argument("--p", type=int, default=None, help="field characteristic")
    sub.add_argument("--k", type=int, default=None, help="extension degree")


def _add_output_args(sub, formats=True):
    if formats:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--seed", type=int, default=0)


def _add_state_cap(sub):
    sub.add_argument(
        "--state-cap", type=int, default=walk_mod.DEFAULT_STATE_CAP,
        help="cap on the exact chain's work: lumps x distinct images per lump",
    )


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header, rows, out_path):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    _emit(buf.getvalue(), out_path)


def _parse_range(range_text):
    lo, _, hi = range_text.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise ValueError("empty range")
    return range(lo, hi + 1)


def cmd_spectrum(args):
    field = _resolve_field_args(args)
    lines = [
        [line.lam.to_json(), _frac_str(line.phi), str(line.multiplicity), line.type_count]
        for line in spectrum(args.n, field.q)
    ]
    header = ["lambda", "phi", "multiplicity", "type_count"]
    if args.format == "json":
        data = {"n": args.n, "q": field.q, "lines": [dict(zip(header, line)) for line in lines]}
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        _emit_csv(header, ([json.dumps(lam), *rest] for lam, *rest in lines), args.out)
    return EXIT_OK


def cmd_bounds(args):
    field = _resolve_field_args(args)
    n, q = args.n, field.q
    ks = _parse_range(args.k_range)
    mode = bounds_mod.resolve_mode(n, q, ks, args.mode)
    bounds_mod.check_row_work(n, q, ks)
    tv_exact = {}
    if args.with_exact:
        walk_mod.check_tv_work(n, q, ks[-1])  # before the chain is built
        chain = walk_mod.exact_form_chain(n, field, cap=args.state_cap)
        for k, tv_full, _ in chain.tv_curve(ks[-1]):
            tv_exact[k] = tv_full
    rows = []
    for k in ks:
        bv = bounds_mod.upper_bound_tv(n, q, k, mode)
        c = n - k
        rows.append([
            k,
            _frac_str(tv_exact[k]) if k in tv_exact else "",
            repr(min(1.0, bv.value)),
            _frac_str(bounds_mod.lower_bound_tv(n, q, c)) if 0 <= c <= n else "",
            bv.mode,
        ])
    header = ["k", "tv_exact", "tv_upper", "tv_lower", "mode"]
    if args.format == "json":
        data = {"n": n, "q": q, "rows": [dict(zip(header, row)) for row in rows]}
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        _emit_csv(header, rows, args.out)
    return EXIT_OK


def cmd_chain(args):
    field = _resolve_field_args(args)
    walk_mod.check_tv_work(args.n, field.q, args.kmax)  # before the chain is built
    chain = walk_mod.exact_form_chain(args.n, field, cap=args.state_cap)
    rows = chain.tv_curve(args.kmax)
    if args.format == "json":
        data = {
            "n": chain.n,
            "q": chain.q,
            "num_states": chain.num_states,
            "lumps": [
                {
                    "mu": t.to_json(),
                    "size": sz,
                    "stationary": _frac_str(st),
                }
                for t, sz, st in zip(chain.lump_types, chain.lump_sizes, chain.stationary)
            ],
            "transition": [[_frac_str(x) for x in row] for row in chain.lumped_transition],
            "tv": [
                {"k": k, "tv": _frac_str(tf), "tv_lumped": _frac_str(tl)}
                for k, tf, tl in rows
            ],
        }
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        _emit_csv(["k", "tv", "stderr"], ([k, _frac_str(tv), ""] for k, tv, _ in rows), args.out)
    return EXIT_OK


def cmd_simulate(args):
    field = _resolve_field_args(args)
    results = walk_mod.monte_carlo_curve(
        args.n, field, args.steps, args.trials, seed=args.seed
    )
    rows = ([k, repr(float(res.estimate)), repr(res.stderr)] for k, res in results)
    _emit_csv(["k", "tv", "stderr"], rows, args.out)
    return EXIT_OK


def cmd_verify(args):
    names = args.suite or None
    try:
        results = verify_mod.run_suites(
            names, max_n=args.max_n, trials=args.trials, seed=args.seed
        )
    except KeyError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    if args.format == "json":
        payload = [
            {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
            for r in results
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} {r.suite}.{r.name}"
            if not r.ok and r.detail:
                line += f"  {r.detail}"
            buf.write(line + "\n")
        _emit(buf.getvalue(), args.out)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def build_parser():
    parser = _Parser(prog="sympwalk", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp_spec = subs.add_parser("spectrum", help="eigenvalue table")
    _add_field_args(sp_spec)
    _add_output_args(sp_spec)
    sp_spec.set_defaults(func=cmd_spectrum)

    sp_bounds = subs.add_parser("bounds", help="TV bound curves")
    _add_field_args(sp_bounds)
    _add_output_args(sp_bounds)
    sp_bounds.add_argument("--k-range", required=True, help="A..B inclusive")
    mode = sp_bounds.add_mutually_exclusive_group()
    for name in ("exact", "logfloat"):
        mode.add_argument(f"--{name}", dest="mode", action="store_const", const=name, default="auto")
    sp_bounds.add_argument("--with-exact", action="store_true",
                           help="merge the exact chain TV column (small spaces)")
    _add_state_cap(sp_bounds)
    sp_bounds.set_defaults(func=cmd_bounds)

    sp_chain = subs.add_parser("chain", help="exact finite chain")
    _add_field_args(sp_chain)
    _add_output_args(sp_chain)
    sp_chain.add_argument("--kmax", type=int, default=10)
    _add_state_cap(sp_chain)
    sp_chain.set_defaults(func=cmd_chain)

    sp_sim = subs.add_parser("simulate", help="Monte Carlo walk")
    _add_field_args(sp_sim)
    _add_output_args(sp_sim, formats=False)
    sp_sim.add_argument("--steps", type=int, required=True)
    sp_sim.add_argument("--trials", type=int, default=100_000)
    sp_sim.set_defaults(func=cmd_simulate)

    sp_ver = subs.add_parser("verify", help="run invariant suites")
    _add_output_args(sp_ver)
    sp_ver.add_argument("--suite", action="append", choices=sorted(verify_mod.SUITES))
    sp_ver.add_argument("--max-n", type=int, default=4)
    sp_ver.add_argument("--trials", type=int, default=20000)
    sp_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact rationals print in full: lift the int-to-str digit limit of
    # Python 3.10.7 on (0 means none) for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (
        StateSpaceTooLargeError,
        EnumerationTooLargeError,
        ExactArithmeticTooLargeError,
        FieldTooLargeError,
        StepRangeTooLargeError,
    ) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
