import random

import pytest

from looppres.errors import NegativeMultiplicity, NonIntegralMultiplicity, NotFlag
from looppres.homotopy import (
    char_polynomial,
    euler_identity_check,
    expand_sphere_product,
    h_side_polynomial,
    loop_poincare_series,
    multiplicity_report,
    one_minus_tk_power,
    one_plus_t_power,
    poly_mul,
    rational_homotopy_ranks,
    series_inverse,
    serre_rank,
    sphere_multiplicities,
)
from looppres.pcalg import PCAlgebra, graded_dimensions
from looppres.simplicial import (
    clique_complex,
    cycle_complex,
    disjoint_points,
    graph_complex,
    octahedron,
    path_complex,
    simplex,
)

PENTAGON = cycle_complex(5)
SQUARE = cycle_complex(4)


def test_series_helpers():
    assert poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert series_inverse([1, -1], 5) == [1, 1, 1, 1, 1, 1]
    assert one_plus_t_power(3) == [1, 3, 3, 1]
    with pytest.raises(ValueError):
        series_inverse([2, 1], 3)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_negative_powers_of_one_minus_tk(k):
    # (1 - t^k)^-d is the series inverse of (1 - t^k)^d, sparse like it
    for d in range(1, 5):
        inverse = one_minus_tk_power(k, -d, 30)
        assert poly_mul(one_minus_tk_power(k, d, 30), inverse, 30) == \
            [1] + [0] * 30
        assert inverse == series_inverse(one_minus_tk_power(k, d, 30), 30)


def test_euler_identity_named_complexes():
    lhs, rhs, equal = euler_identity_check(SQUARE)
    assert equal and lhs == [1, 0, -2, 0, 1]  # (1-t^2)^2
    lhs, rhs, equal = euler_identity_check(PENTAGON)
    assert equal and lhs == [1, 0, -5, -5, 0, 1]
    for m in (1, 2, 3, 4):
        lhs, rhs, equal = euler_identity_check(simplex(m))
        assert equal and lhs == [1]
    with pytest.raises(NotFlag):
        euler_identity_check(graph_complex(3, [(1, 2), (2, 3), (1, 3)]))


def test_euler_identity_random_flag():
    rng = random.Random(8)
    for _ in range(25):
        m = rng.randint(1, 7)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.5]
        k = clique_complex(m, edges)
        _, _, equal = euler_identity_check(k)
        assert equal


def test_sphere_multiplicities_examples():
    d = sphere_multiplicities([1, 0, -2, 0, 1], 8)  # square: (1-t^2)^2
    assert d[3] == 2 and all(v == 0 for n, v in d.items() if n != 3)
    d = sphere_multiplicities([1, 0, -1], 8)  # two points: Z_K = S^3
    assert d[3] == 1 and all(v == 0 for n, v in d.items() if n != 3)
    d = sphere_multiplicities([1, 0, -5, -5, 0, 1], 16)  # pentagon
    assert d[3] == 5 and d[4] == 5
    assert all(v >= 0 for v in d.values())
    # re-expansion reproduces P mod t^17
    expanded = expand_sphere_product(d, 16)
    assert expanded == [1, 0, -5, -5, 0, 1] + [0] * 11


def test_sphere_multiplicities_errors():
    with pytest.raises(NonIntegralMultiplicity):
        sphere_multiplicities([2, 0, 1], 4)
    with pytest.raises(NonIntegralMultiplicity):
        sphere_multiplicities([1, 1], 4)
    with pytest.raises(NegativeMultiplicity):
        sphere_multiplicities([1, 0, 2], 4)  # would need D_3 = -2


def test_loop_poincare_series():
    assert loop_poincare_series(SQUARE, 8) == [1, 0, 2, 0, 3, 0, 4, 0, 5]
    series = loop_poincare_series(PENTAGON, 6)
    assert series[:5] == [1, 0, 5, 5, 25]
    assert loop_poincare_series(simplex(3), 5) == [1, 0, 0, 0, 0, 0]


def test_poincare_matches_pc_dimensions():
    # loop homology series * (1+t)^m = k[K]^! series, coefficient by coefficient
    complexes = [SQUARE, PENTAGON, cycle_complex(6), simplex(3),
                 disjoint_points(3), path_complex(4), octahedron()]
    for k in complexes:
        n = 8
        series = loop_poincare_series(k, n)
        product = poly_mul(series, one_plus_t_power(k.m), n)
        product += [0] * (n + 1 - len(product))
        dims = graded_dimensions(PCAlgebra(k), n)
        assert product == dims, k


def test_serre_ranks():
    assert serre_rank(3, 3) == 1
    assert serre_rank(5, 3) == 0  # odd sphere: no extra class
    assert serre_rank(7, 4) == 1  # even sphere: N = 2n-1
    assert serre_rank(6, 4) == 0


def test_rational_homotopy_ranks():
    d = sphere_multiplicities([1, 0, -2, 0, 1], 8)
    ranks = rational_homotopy_ranks(d, 8)
    assert ranks[3] == 2 and ranks[5] == 0
    d = sphere_multiplicities([1, 0, -1], 8)
    ranks = rational_homotopy_ranks(d, 8)
    assert ranks[3] == 1 and all(r == 0 for n, r in ranks.items() if n != 3)
    report = multiplicity_report(simplex(4), 8)
    assert all(r == 0 for r in report.rational_ranks.values())


def test_symbolic_homotopy_group():
    from looppres.homotopy import symbolic_homotopy_group

    d = sphere_multiplicities([1, 0, -5, -5, 0, 1], 8)
    assert symbolic_homotopy_group(d, 3) == "pi_3(S^3)^5"
    assert symbolic_homotopy_group(d, 4) == "pi_4(S^3)^5 + pi_4(S^4)^5"
    assert symbolic_homotopy_group({}, 5) == "0"
    assert symbolic_homotopy_group({3: 1}, 7) == "pi_7(S^3)"


def test_multiplicity_report():
    report = multiplicity_report(PENTAGON, 16)
    assert report.nonzero_multiplicities()[3] == 5
    assert report.nonzero_multiplicities()[4] == 5
    data = report.to_dict()
    assert data["D"]["3"] == 5
    assert data["P"] == [1, 0, -5, -5, 0, 1]
    assert data["rational_ranks"]["3"] == 5
    # even spheres contribute to pi_{2n-1}: D_4 = 5 adds rank at N = 7
    assert report.rational_ranks[7] >= 5


def test_inverse_series_matches_inverse_product():
    # 1/P coefficientwise equals prod (1-t^{n-1})^{-D_n}
    from looppres.homotopy import one_minus_tk_power

    for k in (SQUARE, PENTAGON, cycle_complex(6)):
        trunc = 12
        report = multiplicity_report(k, trunc)
        product_inv = [0] * (trunc + 1)
        product_inv[0] = 1
        for n, d in report.multiplicities.items():
            if d == 0 or n - 1 > trunc:
                continue
            factor_inv = series_inverse(one_minus_tk_power(n - 1, d, trunc),
                                        trunc)
            product_inv = poly_mul(product_inv, factor_inv, trunc)
            product_inv += [0] * (trunc + 1 - len(product_inv))
        assert product_inv == report.poincare[:trunc + 1]


def test_json_complex_roundtrip():
    from looppres.simplicial import SimplicialComplex

    k = SimplicialComplex.from_json_dict(
        {"facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    assert k.m == 4 and k == SQUARE
    assert SimplicialComplex.from_json_dict(k.to_json_dict()) == k
    with pytest.raises(ValueError):
        SimplicialComplex.from_json_dict({"facets": "junk"})


def test_char_and_h_side_agree_on_octahedron():
    k = octahedron()
    assert char_polynomial(k) == h_side_polynomial(k)
    report = multiplicity_report(k, 12)
    assert all(v >= 0 for v in report.multiplicities.values())
