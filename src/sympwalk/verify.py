"""Programmatic invariant suites behind the `verify` CLI subcommand.

Each check returns a CheckResult; failures carry a counterexample dump in
`detail` and are data, not crashes.  Caps are parameters so the command can
scale effort up or down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bounds_mod
from . import combinat as cb
from . import field as field_mod
from . import linalg as la
from . import spectral as sp
from . import walk as walk_mod
from .errors import NonIntegerResultError


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _res(suite, name, ok, detail=""):
    return CheckResult(suite, name, bool(ok), detail)


def check_field(max_n=4, trials=0, seed=0):
    out = []
    for q, p, k in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (8, 2, 3), (9, 3, 2)):
        F = field_mod.build_field(p, k)
        bad = []
        for a in F.elements():
            for b in F.elements():
                if F.add(a, b) != F.add(b, a) or F.mul(a, b) != F.mul(b, a):
                    bad.append((a, b))
                for c in F.elements():
                    if F.mul(a, F.add(b, c)) != F.add(F.mul(a, b), F.mul(a, c)):
                        bad.append((a, b, c))
        inv_ok = all(F.mul(a, F.inv(a)) == 1 for a in range(1, F.q))
        frob_ok = all(F.pow(a, F.q) == a for a in F.elements())
        out.append(_res("field", f"axioms_q{q}", not bad and inv_ok and frob_ok, str(bad[:3])))
    for q, p, k in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)):
        F = field_mod.build_field(p, k)
        for d in range(1, 5):
            got = len(field_mod.enumerate_irreducibles(F, d))
            want = field_mod.irreducible_count(q, d)
            out.append(_res("field", f"irreducible_count_q{q}_d{d}", got == want, f"{got} != {want}"))
    return out


def check_linalg(max_n=4, trials=200, seed=0):
    rng = random.Random(seed)
    out = []
    for q in (2, 3):
        F = field_mod.build_field(q, 1)
        n = 2
        mats = {t.matrix().key() for t in la.all_transvections(2 * n, F)}
        want = la.transvection_count(2 * n, q)
        out.append(_res("linalg", f"transvection_census_q{q}", len(mats) == want, f"{len(mats)} != {want}"))
        J = la.standard_J(n, F)
        sym = sum(
            1 for t in la.all_transvections(2 * n, F) if la.is_form_preserving(t.matrix(), J)
        )
        out.append(_res("linalg", f"symplectic_subcount_q{q}", sym == q ** (2 * n) - 1, str(sym)))
    F2 = field_mod.build_field(2, 1)
    ok = True
    detail = ""
    for _ in range(trials):
        t = la.sample_transvection(2, F2, rng)
        m = t.matrix()
        inv = la.class_invariant(m)
        if inv.degree_partition_pairs() != ((1, (2, 1, 1)),):
            ok = False
            detail = str(inv.entries)
            break
    out.append(_res("linalg", "transvection_class_type", ok, detail))
    ok = True
    detail = ""
    for _ in range(max(20, trials // 10)):
        k = la.sample_symplectic(2, F2, rng)
        if not la.is_form_preserving(k, la.standard_J(2, F2)):
            ok = False
            detail = "sample_symplectic output not symplectic"
            break
    out.append(_res("linalg", "sample_symplectic_preserves_J", ok, detail))
    return out


def check_combinat(max_n=4, trials=0, seed=0):
    out = []
    for q in (2, 3):
        for n in range(1, max_n + 1):
            total = sum(
                cnt * cb.class_size(fn, q) for fn, cnt in cb.enumerate_partition_fns(n, q)
            )
            out.append(
                _res("combinat", f"class_sizes_sum_n{n}_q{q}", total == cb.gl_order(n, q),
                     f"{total} != {cb.gl_order(n, q)}")
            )
            total2 = sum(
                cnt * cb.class_size_qsq(fn, q) for fn, cnt in cb.enumerate_partition_fns(n, q)
            )
            out.append(
                _res("combinat", f"coset_sizes_sum_n{n}_q{q}", total2 == cb.coset_space_size(n, q),
                     f"{total2} != {cb.coset_space_size(n, q)}")
            )
            total3 = sum(
                cnt * cb.dim_irrep(fn.doubled(), q)
                for fn, cnt in cb.enumerate_partition_fns(n, q)
            )
            out.append(
                _res("combinat", f"doubled_dims_sum_n{n}_q{q}", total3 == cb.coset_space_size(n, q),
                     f"{total3} != {cb.coset_space_size(n, q)}")
            )
    # negative control: a perturbed centralizer order must trip the guard
    orig = cb._centralizer_ratio

    def perturbed(mu, q):  # a_mu times 9999991/2
        num, den = orig(mu, q)
        return num * 9999991, den * 2

    try:
        cb._centralizer_ratio = perturbed
        try:
            cb.class_size(cb.PartitionFn.make([(1, (2,))]), 2)
            tripped = False
        except NonIntegerResultError:
            tripped = True
    finally:
        cb._centralizer_ratio = orig
    out.append(_res("combinat", "non_integer_guard", tripped, "perturbed a_mu not caught"))
    return out


def check_spectral(max_n=4, trials=0, seed=0):
    out = []
    for q in (2, 3):
        for n in range(2, max_n + 1):
            bad = []
            for fn, cnt in cb.enumerate_partition_fns(n, q):
                pl = sp.eigenvalue_phi(fn, n, q)
                pg = sp.eigenvalue_phi_global(fn, n, q)
                pv = sp.eigenvalue_via_lift(fn, n, q)
                if not (pl == pg == pv):
                    bad.append((fn.entries, str(pl), str(pg), str(pv)))
                if pl < sp.eigenvalue_floor(n, q) or pl > sp.corner_bound(fn, n, q):
                    bad.append((fn.entries, "bound violation", str(pl)))
            out.append(_res("spectral", f"dual_paths_n{n}_q{q}", not bad, str(bad[:2])))
    lines = sp.spectrum(2, 2)
    got = [(str(l.phi), l.multiplicity) for l in lines]
    want = [("1", 1), ("1/15", 20), ("-1/3", 7)]
    out.append(_res("spectral", "example_spectrum_2_2", got == want, str(got)))
    return out


def check_bounds(max_n=4, trials=0, seed=0):
    out = []
    bad = []
    for q in (2, 3, 4):
        for n in range(1, max_n + 1):
            for c in range(n + 1):
                lhs, rhs, ok = bounds_mod.fixed_space_tail_check(n, q, c)
                if not ok:
                    bad.append((n, q, c, str(lhs), str(rhs)))
    out.append(_res("bounds", "fixed_space_tail", not bad, str(bad[:3])))
    bad = []
    for q in (2, 3):
        for n in range(1, max_n + 1):
            val, ok = bounds_mod.ratio_constant_check(n, q)
            if not ok:
                bad.append((n, q, str(val)))
    out.append(_res("bounds", "ratio_constant", not bad, str(bad)))
    bad = []
    for q in (2, 3):
        for n in range(2, max_n + 1):
            prev = None
            for k in range(1, 9):
                bv = bounds_mod.upper_bound_tv(n, q, k, "exact")
                if prev is not None and not bv.squared < prev:
                    bad.append((n, q, k))
                prev = bv.squared
            crude, exact = bounds_mod.negative_mass_bound(n, q, n + 1)
            if exact > crude:
                bad.append((n, q, "negative_mass"))
    out.append(_res("bounds", "upper_bound_monotone_and_negative_mass", not bad, str(bad)))
    return out


def check_walk(max_n=2, trials=20000, seed=0):
    out = []
    chain = walk_mod.exact_form_chain(2, 2)
    want = [
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1, 15), Fraction(6, 15), Fraction(8, 15)],
        [Fraction(0), Fraction(2, 3), Fraction(1, 3)],
    ]
    out.append(
        _res("walk", "example_transition_2_2", chain.lumped_transition == want,
             str([[str(x) for x in row] for row in chain.lumped_transition]))
    )
    rows = chain.tv_curve(2)
    out.append(
        _res("walk", "example_tv_2_2",
             rows[1][1] == Fraction(13, 28) and rows[2][1] == Fraction(19, 140),
             str([(k, str(v)) for k, v, _ in rows]))
    )
    brute = chain.full_tv_curve_bruteforce(4)
    formula = chain.tv_curve(4)
    out.append(
        _res("walk", "sector_formula_vs_bruteforce_2_2",
             all(b[1] == f[1] for b, f in zip(brute, formula)), "")
    )
    violations = 0
    for c in range(0, 3):
        v, _ = walk_mod.support_violations(2, 2, c, max(1000, trials // 10), seed=seed)
        violations += v
    out.append(_res("walk", "support_2_2", violations == 0, f"{violations} violations"))
    mc = walk_mod.monte_carlo_tv(2, 2, 1, trials, seed=seed)
    out.append(
        _res("walk", "mc_one_step_exact", mc.estimate == Fraction(13, 28), str(mc.estimate))
    )
    return out


SUITES = {
    "field": check_field,
    "linalg": check_linalg,
    "combinat": check_combinat,
    "spectral": check_spectral,
    "bounds": check_bounds,
    "walk": check_walk,
}


def run_suites(names=None, max_n=4, trials=20000, seed=0):
    # the dual-route and upper-bound sweeps start at n = 2: below it they check nothing
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    # the combinat and spectral suites enumerate every label up to max_n
    cb.check_enumeration_cap(max_n)
    names = list(SUITES) if not names else list(names)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(SUITES[name](max_n=max_n, trials=trials, seed=seed))
    return results
