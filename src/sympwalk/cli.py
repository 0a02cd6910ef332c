"""Command-line driver: spectrum tables, bound curves, exact chains,
simulation, and the verification suite.

Exit codes: 0 ok, 1 usage error, 2 verification failure, 3 resource cap.
Rationals are printed as "num/den" and big integers as decimal strings, so
nothing is lost across the wire.  Identical configuration and seed yield
byte-identical reports.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from . import bounds as bounds_mod
from . import verify as verify_mod
from . import walk as walk_mod
from .errors import ResourceCapError
from .field import field_from_order
from .spectral import spectrum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_RESOURCE = 3


def _frac_str(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(x) if isinstance(x, float) else str(x)


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
    if lo < 1:
        raise ValueError("k must be >= 1")
    return range(lo, hi + 1)


def cmd_spectrum(args):
    field = field_from_order(args.q)
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
    field = field_from_order(args.q)
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
    field = field_from_order(args.q)
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
    field = field_from_order(args.q)
    results = walk_mod.monte_carlo_curve(
        args.n, field, args.steps, args.trials, seed=args.seed
    )
    rows = ([k, repr(float(res.estimate)), repr(res.stderr)] for k, res in results)
    _emit_csv(["k", "tv", "stderr"], rows, args.out)
    return EXIT_OK


def cmd_verify(args):
    names = args.suite or None
    results = verify_mod.run_suites(names, max_n=args.max_n, trials=args.trials, seed=args.seed)
    if args.format == "json":
        payload = [
            {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail, "seconds": r.seconds}
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


def _nonnegative(text):
    if int(text) < 0:
        raise ValueError(f"{text} is negative")
    return int(text)


# A long option of the command table.  `read` turns its text into the value;
# an option whose `read` is None takes no value and stores `const`.
_Opt = namedtuple("_Opt", "flag dest help read default required choices const append",
                  defaults=(int, None, False, (), None, False))
_N = _Opt("--n", "n", "half-dimension n", required=True)
_Q = _Opt("--q", "q", "field size q = p^k (prime power)", default=2)
_FORMAT = _Opt("--format", "format", "output format", str, "csv", choices=("csv", "json"))
_OUT = _Opt("--out", "out", "output path (default stdout)", str)
_SEED = _Opt("--seed", "seed", "seed of the Monte Carlo draws (simulate, verify)", _nonnegative, 0)
_STATE_CAP = _Opt("--state-cap", "state_cap", "cap on the exact chain's work: lumps x distinct images per lump",
                  _nonnegative, walk_mod.DEFAULT_STATE_CAP)

# command -> (help line, options); main runs the handler cmd_<command>
COMMANDS = {
    "spectrum": ("eigenvalue table", (_N, _Q, _FORMAT, _OUT, _SEED)),
    "bounds": ("TV bound curves", (
        _N, _Q, _FORMAT, _OUT, _SEED,
        _Opt("--k-range", "k_range", "steps A..B inclusive", str, required=True),
        _Opt("--exact", "mode", "exact upper bound", None, "auto", const="exact"),
        _Opt("--logfloat", "mode", "float upper bound (default: exact if cheap)", None, "auto", const="logfloat"),
        _Opt("--with-exact", "with_exact", "merge the exact chain TV column (small spaces)", None, False, const=True),
        _STATE_CAP,
    )),
    "chain": ("exact finite chain", (
        _N, _Q, _FORMAT, _OUT, _SEED, _Opt("--kmax", "kmax", "last step", default=10), _STATE_CAP,
    )),
    "simulate": ("Monte Carlo walk", (
        _N, _Q, _OUT, _SEED,
        _Opt("--steps", "steps", "last step", required=True),
        _Opt("--trials", "trials", "walks per step", default=100_000),
    )),
    "verify": ("run invariant suites", (
        _FORMAT, _OUT, _SEED,
        _Opt("--suite", "suite", "suite to run, repeatable (default all)", str,
             choices=tuple(sorted(verify_mod.SUITES)), append=True),
        _Opt("--max-n", "max_n", "largest n of the sweeps", default=4),
        _Opt("--trials", "trials", "Monte Carlo walks per check", default=20000),
    )),
}


def _shown(opt):
    if opt.read is None:
        return opt.flag
    return f"{opt.flag} {{{','.join(opt.choices)}}}" if opt.choices else f"{opt.flag} {opt.dest.upper()}"


def _usage(command):
    if command is None:
        return f"usage: sympwalk [-h] {{{','.join(COMMANDS)}}} ...\n"
    shown = (_shown(o) if o.required else f"[{_shown(o)}]" for o in COMMANDS[command][1])
    return f"usage: sympwalk {command} [-h] {' '.join(shown)}\n"


def _help(command):
    if command is None:
        title, rows = __doc__ + "\ncommands:", [(name, h) for name, (h, _) in COMMANDS.items()]
    else:
        title, rows = COMMANDS[command][0] + "\n\noptions:", [(_shown(o), o.help) for o in COMMANDS[command][1]]
    sys.stdout.write(f"{_usage(command)}\n{title}\n" + "".join(f"  {a:<26} {b}\n" for a, b in rows))
    raise SystemExit(EXIT_OK)


def _fail(command, message):
    sys.stderr.write(f"{_usage(command)}sympwalk: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _parse(argv):
    """Read argv against COMMANDS: the command and a namespace of its dests.
    A long option may be given by a unique prefix, and its value as the next
    token or after "="; the last value given wins, or all of them append."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        _fail(None, f"invalid command {command!r}" if argv else "the following arguments are required: command")
    opts = {o.flag: o for o in COMMANDS[command][1]}
    args = SimpleNamespace(**{o.dest: o.default for o in opts.values()})
    given = {}  # dest -> the flag that set it
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        long = flag.startswith("--") and len(flag) > 2
        names = [flag] if flag in opts else [f for f in (*opts, "--help") if long and f.startswith(flag)]
        if token == "-h" or names == ["--help"]:
            _help(command)
        if len(names) != 1:
            _fail(command, f"ambiguous option: {flag} could match {', '.join(names)}" if len(names) > 1
                  else f"unrecognized arguments: {token}")
        opt = opts[names[0]]
        if opt.read is None:
            if eq:
                _fail(command, f"argument {opt.flag}: ignored explicit argument {text!r}")
            value = opt.const
        else:
            if not eq:
                text = next(tokens, None)
                if text is None or text.startswith("--"):
                    _fail(command, f"argument {opt.flag}: expected one argument")
            try:
                value = opt.read(text)
            except ValueError as exc:
                _fail(command, f"argument {opt.flag}: {exc}")
            if opt.choices and value not in opt.choices:
                _fail(command, f"argument {opt.flag}: invalid choice {text!r} (choose from {', '.join(opt.choices)})")
            if opt.append:
                value = [*(getattr(args, opt.dest) or ()), value]
        if given.setdefault(opt.dest, opt.flag) != opt.flag:
            _fail(command, f"argument {opt.flag}: not allowed with argument {given[opt.dest]}")
        setattr(args, opt.dest, value)
    missing = [o.flag for o in opts.values() if o.required and o.dest not in given]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return command, args


def main(argv=None):
    freeze = not gc.get_freeze_count()  # a heap a caller froze stays frozen
    if freeze:
        gc.freeze()  # the collector scans only what the call allocates
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        # exact rationals print in full: lift the int-to-str digit limit of
        # Python 3.10.7 on (0 means none) for this call only
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return globals()[f"cmd_{command}"](args)
        except ResourceCapError as exc:
            sys.stderr.write(f"resource cap: {exc}\n")
            return EXIT_RESOURCE
        except (ValueError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_USAGE
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
