"""The benchmark's workloads: the argv each one sends to `sympwalk`, and the
exactness check of each output.

Every call is an unmodified `sympwalk` CLI invocation.  Its stdout is
checked against the SHA-256 digest pinned in refs.json (regenerate with
make_refs.py) and against an independent mathematical check computed here,
outside the timed region, from the exact library routines.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")

# Monte Carlo workloads draw their CLI seeds from this pool; refs.json pins
# the stdout digest of every one, so every call is checked byte for byte.
SIM_SEEDS = tuple(range(16))


class Workload:
    """One CLI command.  Subclasses add the mathematical check."""

    seeded = False  # does the CLI --seed change the output?
    probe = "mixed"  # the speed probe (probe.py) that tracks this workload

    def __init__(self, name, args):
        self.name = name
        self.args = tuple(args)

    def argv(self, bench_seed, i):
        """argv of call i of a run with the given benchmark seed."""
        if self.seeded:
            cli_seed = SIM_SEEDS[(bench_seed + i) % len(SIM_SEEDS)]
        else:
            cli_seed = bench_seed
        return [*self.args, "--seed", str(cli_seed)]

    def ref_key(self, argv):
        return argv[-1] if self.seeded else "*"

    def prepare(self):
        """Exact references for check(); computed once per run, untimed."""

    def check(self, stdout):
        """Raise CheckFailed unless stdout is exactly right."""
        raise NotImplementedError


class CheckFailed(Exception):
    """An output that is not exactly right."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_rows(stdout):
    return list(csv.DictReader(io.StringIO(stdout)))


class Chain(Workload):
    """`chain --format json`: the exact TV curve sits in the bound sandwich
    lower_bound_tv(n,q,c) <= tv(n-c) and tv(k)^2 <= upper(k).squared."""

    def __init__(self, name, n, q, kmax):
        super().__init__(
            name, ["chain", "--n", str(n), "--q", str(q), "--kmax", str(kmax), "--format", "json"]
        )
        self.n, self.q, self.kmax = n, q, kmax

    def prepare(self):
        from sympwalk.bounds import lower_bound_tv, upper_bound_tv

        self.lower = {self.n - c: lower_bound_tv(self.n, self.q, c) for c in range(self.n + 1)}
        self.upper_sq = {
            k: upper_bound_tv(self.n, self.q, k, "exact").squared
            for k in range(1, self.kmax + 1)
        }

    def check(self, stdout):
        data = json.loads(stdout)
        tv = {row["k"]: Fraction(row["tv"]) for row in data["tv"]}
        _require(sorted(tv) == list(range(self.kmax + 1)), "TV rows missing")
        for k, low in self.lower.items():
            _require(low <= tv[k], f"tv({k}) below the lower bound")
        for k, sq in self.upper_sq.items():
            _require(tv[k] ** 2 <= sq, f"tv({k}) above the upper bound")


class Simulate(Workload):
    """`simulate` CSV rows (k, tv, stderr) for k = 0..steps."""

    seeded = True

    def __init__(self, name, n, q, steps, trials):
        super().__init__(
            name,
            ["simulate", "--n", str(n), "--q", str(q), "--steps", str(steps), "--trials", str(trials)],
        )
        self.n, self.q, self.steps = n, q, steps

    def rows(self, stdout):
        rows = [(int(r["k"]), r["tv"], float(r["stderr"])) for r in _csv_rows(stdout)]
        _require([k for k, _, _ in rows] == list(range(self.steps + 1)), "rows missing")
        return rows


class SimulateExact(Simulate):
    """Where the exact chain is known, every estimate lies within
    max(3 stderr, 1e-12) of the exact TV (the tolerance of acceptance
    criterion 10)."""

    def prepare(self):
        from sympwalk.walk import exact_form_chain

        chain = exact_form_chain(self.n, self.q)
        self.exact = {k: tv for k, tv, _ in chain.tv_curve(self.steps)}

    def check(self, stdout):
        for k, est, err in self.rows(stdout):
            diff = abs(float(Fraction(est) - self.exact[k]))
            _require(diff <= max(3 * err, 1e-12), f"k={k} off the exact TV")


class SimulateBounded(Simulate):
    """Beyond the exact chains, for k >= 1 every estimate is at most
    upper_bound_tv(n,q,k) + 3 stderr."""

    probe = "bigint"  # nearly every state goes through the pure-Python classifier

    def prepare(self):
        from sympwalk.bounds import upper_bound_tv

        self.upper = {k: upper_bound_tv(self.n, self.q, k).value for k in range(1, self.steps + 1)}

    def check(self, stdout):
        for k, est, err in self.rows(stdout)[1:]:
            _require(float(est) <= self.upper[k] + 3 * err, f"k={k} above the upper bound")


class Bounds(Workload):
    """`bounds`: tv_lower <= tv_upper on every row."""

    probe = "bigint"

    def __init__(self, name, n, q, k_range):
        super().__init__(name, ["bounds", "--n", str(n), "--q", str(q), "--k-range", k_range])

    def check(self, stdout):
        rows = _csv_rows(stdout)
        _require(rows, "no rows")
        for r in rows:
            if r["tv_lower"]:
                _require(Fraction(r["tv_lower"]) <= Fraction(r["tv_upper"]), f"k={r['k']} lower > upper")


WORKLOADS = {
    w.name: w
    for w in (
        Chain("chain-n2-q3", 2, 3, 12),
        SimulateExact("simulate-n2-q2", 2, 2, 4, 60_000),
        SimulateBounded("simulate-n3-q3", 3, 3, 4, 150),
        Bounds("bounds-n10-q3", 10, 3, "4..18"),
    )
}


def load_refs():
    return json.loads(REFS_PATH.read_text())


def verify(workload, refs, argv, stdout):
    """Digest check, then the workload's own check.  Raises CheckFailed."""
    want = refs[workload.name].get(workload.ref_key(argv))
    _require(want is not None, f"no pinned digest for {argv}")
    _require(digest(stdout) == want, "stdout digest differs from the pinned reference")
    workload.check(stdout)
