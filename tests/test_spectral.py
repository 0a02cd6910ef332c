import json
from fractions import Fraction

import pytest

from sympwalk.cli import main
from sympwalk.combinat import PartitionFn, enumerate_partition_fns, dim_irrep, partitions_of
from sympwalk.errors import NotSingleBoxError, WeightMismatchError
from sympwalk.spectral import (
    char_ratio_transvection,
    content_sum,
    corner_bound,
    eigenvalue_floor,
    eigenvalue_phi,
    eigenvalue_phi_global,
    eigenvalue_via_lift,
    macdonald_cprime,
    proportions_a_b,
    psi_prime,
    spectrum,
    trivial_label,
)

TRIVIAL2 = PartitionFn.make([(1, (1, 1))])
ROW2 = PartitionFn.make([(1, (2,))])
DEG2 = PartitionFn.make([(2, (1,))])


def test_proportions_2_2():
    a, b = proportions_a_b(2, 2)
    assert (a, b) == (Fraction(6, 7), Fraction(1, 7))
    # a scales the transvection count to the non-symplectic count
    assert a * 105 == 90


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_proportions_sum_to_one(n, q):
    a, b = proportions_a_b(n, q)
    assert a + b == 1


def test_macdonald_cprime_row2():
    # boxes (1,1): arm 1, leg 0 and (1,2): arm 0, leg 0
    q = 2
    assert macdonald_cprime((2,), q) == (1 - q ** 2) * (1 - q) == 3


def test_psi_prime_single_box_cases():
    # removing the only box of a row leaves no column boxes above: empty product
    assert psi_prime((2,), (1,), 2) == 1
    # removing (2,1) from (1,1): one box above, ratio of b factors
    q = 2
    want = Fraction(1 - q ** 4, 1 - q ** 3) * Fraction(1 - q, 1 - q ** 2)
    assert psi_prime((1, 1), (1,), q) == want == Fraction(5, 7)


def test_psi_prime_rejects_multibox_skew():
    with pytest.raises(NotSingleBoxError):
        psi_prime((2, 1), (1,), 2)


def test_eigenvalue_trivial_by_hand():
    # single term (1-q^4)/(1-q^2) = 5, constant 5/4, prefactor 4/15
    q = 2
    term = Fraction(1 - q ** 4, 1 - q ** 2)
    const = Fraction(q ** 4 - 1, q ** 2 * (q ** 2 - 1))
    pref = Fraction(q ** 2 * (q ** 2 - 1), (q ** 4 - 1) * (q ** 2 - 1))
    assert term == 5 and const == Fraction(5, 4) and pref == Fraction(4, 15)
    assert pref * (term - const) == 1
    assert eigenvalue_phi(TRIVIAL2, 2, 2) == 1


def test_eigenvalue_examples_2_2():
    assert eigenvalue_phi(ROW2, 2, 2) == Fraction(1, 15)
    assert eigenvalue_phi(DEG2, 2, 2) == Fraction(-1, 3)
    # the degree-2 label has no degree-1 removal: pure constant term
    assert eigenvalue_phi(DEG2, 2, 2) == -Fraction(1, 3)


def test_eigenvalue_weight_mismatch():
    with pytest.raises(WeightMismatchError):
        eigenvalue_phi(TRIVIAL2, 3, 2)


def test_char_ratio_values_via_affine_relation():
    # r such that (1/a) r - b/a reproduces the walk eigenvalue
    a, b = proportions_a_b(2, 2)
    r = char_ratio_transvection(ROW2.doubled(), 4, 2)
    assert r == Fraction(1, 5)
    assert (r - b) / a == Fraction(1, 15)
    r = char_ratio_transvection(DEG2.doubled(), 4, 2)
    assert r == Fraction(-1, 7)
    assert (r - b) / a == Fraction(-1, 3)


def test_char_ratio_trivial_is_one():
    for n, q in ((2, 2), (3, 2), (2, 3)):
        lam = PartitionFn.make([(1, (1,) * (2 * n))])
        assert char_ratio_transvection(lam, 2 * n, q) == 1


@pytest.mark.parametrize(
    "n, q", [(n, q) for q in (2, 3, 4, 5) for n in range(2, 9)] + [(n, q) for q in (7, 8, 9) for n in range(2, 7)]
)
def test_dual_path_equality(n, q):
    """The closed form against both oracles, at every label."""
    for fn, _ in enumerate_partition_fns(n, q):
        local = eigenvalue_phi(fn, n, q)
        ratio_form = eigenvalue_phi_global(fn, n, q)
        lift = eigenvalue_via_lift(fn, n, q)
        assert local == ratio_form == lift


@pytest.mark.parametrize("n, q", [(4, 3), (3, 4)])
def test_local_route_warm_cache_matches_cold(cold_caches, n, q):
    labels = [fn for fn, _ in enumerate_partition_fns(n, q)]
    cold = [eigenvalue_phi(fn, n, q) for fn in labels]
    oracle = [eigenvalue_phi_global(fn, n, q) for fn in labels]
    warm = [eigenvalue_phi(fn, n, q) for fn in labels]
    assert cold == oracle == warm
    assert all(type(phi) is Fraction for phi in warm)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_floor_and_corner_bounds(n, q):
    floor = eigenvalue_floor(n, q)
    for fn, _ in enumerate_partition_fns(n, q):
        phi = eigenvalue_phi(fn, n, q)
        assert floor <= phi <= corner_bound(fn, n, q)
        assert -1 <= phi <= 1


def test_floor_attained_at_2_2():
    lines = spectrum(2, 2)
    assert min(line.phi for line in lines) == eigenvalue_floor(2, 2) == Fraction(-1, 3)


def test_spectrum_2_2():
    lines = spectrum(2, 2)
    assert [(line.phi, line.multiplicity, line.type_count) for line in lines] == [
        (Fraction(1), 1, 1),
        (Fraction(1, 15), 20, 1),
        (Fraction(-1, 3), 7, 1),
    ]
    assert sum(line.multiplicity * line.type_count for line in lines) == 28


def test_trivial_is_unique_top_line():
    for n, q in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)):
        lines = spectrum(n, q)
        top = [line for line in lines if line.phi == 1]
        assert len(top) == 1
        assert top[0].lam == trivial_label(n)
        # the line covers the q - 1 one-dimensional determinant twists
        assert top[0].type_count == q - 1
        assert top[0].multiplicity == 1


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_trace_identity(n, q):
    # the full operator has zero diagonal: sum of d * phi over concrete labels
    total = sum(
        cnt * dim_irrep(fn.doubled(), q) * eigenvalue_phi(fn, n, q)
        for fn, cnt in enumerate_partition_fns(n, q)
    )
    assert total == 0


def test_spectrum_n1_trivial_walk():
    lines = spectrum(1, 2)
    assert len(lines) == 1
    assert lines[0].phi == 1 and lines[0].multiplicity == 1
    lines = spectrum(1, 3)
    assert len(lines) == 1 and lines[0].type_count == 2


def test_spectrum_json_schema(capsys):
    # the spectrum JSON is written by the CLI; each line must match spectrum()
    assert main(["spectrum", "--n", "2", "--q", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2 and data["q"] == 2
    assert [line["phi"] for line in data["lines"]] == ["1", "1/15", "-1/3"]
    assert [line["multiplicity"] for line in data["lines"]] == ["1", "20", "7"]
    assert data["lines"][1]["lambda"] == [{"degree": 1, "partition": [2], "orbit": 0}]
    for got, line in zip(data["lines"], spectrum(2, 2), strict=True):
        assert Fraction(got["phi"]) == line.phi
        assert int(got["multiplicity"]) == line.multiplicity
        assert got["lambda"] == line.lam.to_json() and got["type_count"] == line.type_count


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_content_sum_from_one_list_of_powers_matches_the_per_box_sum(q):
    """Oracle: q^(n-1+2i-j) summed box by box, for every lam with
    |lam| <= 10 and every n from |lam| to 14."""
    for w in range(1, 11):
        for lam in partitions_of(w):
            for n in range(w, 15):
                want = sum(q ** (n - 1 + 2 * i - j) for i, row in enumerate(lam) for j in range(row))
                assert content_sum.__wrapped__(lam, n, q) == want, (lam, n)
