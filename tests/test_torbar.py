import random

import pytest

from looppres.errors import ChainConditionViolated, FaceOutsideJ, NotACycle
from looppres.exactlin import GF, QQ, ZZ, ExactMatrix
from looppres.pcalg import PCAlgebra, commutator_value
from looppres.simplicial import (
    SimplicialCycle,
    all_subsets,
    clique_complex,
    cycle_complex,
    disjoint_points,
    octahedron,
    path_complex,
    reduced_homology,
    rp2_minimal,
    simplex,
)
from looppres.torbar import (
    BarElement,
    bar_cycle,
    bar_cycle_pairform,
    bar_differential,
    dbar,
    dbar_element,
    dhat,
    dhat_augmented,
    dhat_resolution,
    g_map,
    koszul_homology,
    koszul_invariants,
    strand_basis,
    verify_bar_cycle,
)

PENTAGON = cycle_complex(5)
SQUARE = cycle_complex(4)


def random_flag(rng, max_m=5):
    m = rng.randint(2, max_m)
    edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
             if rng.random() < 0.5]
    return clique_complex(m, edges)


def random_basis_element(rng, k, max_alpha=3):
    faces = [f for f in k.faces() if f]
    face = rng.choice(faces)
    alpha = []
    for v in face:
        alpha.extend([v] * rng.randint(1, 2))
        if len(alpha) >= max_alpha:
            break
    i_set = frozenset(v for v in range(1, k.m + 1) if rng.random() < 0.4)
    return i_set, tuple(sorted(alpha))


def test_dbar_single_terms():
    k = PENTAGON
    out = dbar(k, frozenset(), (1,))
    assert out == {(frozenset({1}), ()): 1}
    out = dbar(k, frozenset({1}), (1,))
    assert out == {}  # exterior square u_1 ^ u_1


def test_dbar_squares_to_zero():
    rng = random.Random(10)
    for _ in range(500):
        k = random_flag(rng)
        i_set, alpha = random_basis_element(rng, k)
        once = dbar(k, i_set, alpha)
        twice = dbar_element(k, once)
        assert twice == {}


def test_dhat_augments_to_dbar():
    rng = random.Random(11)
    for _ in range(500):
        k = random_flag(rng)
        i_set, alpha = random_basis_element(rng, k)
        assert dhat_augmented(k, i_set, alpha) == dbar(k, i_set, alpha)


def test_dhat_first_sum_only_for_empty_I():
    k = PENTAGON
    out = dhat(k, frozenset(), (1, 2))
    assert all(pre is None for (pre, _, _) in out)
    assert out == {(None, frozenset({1}), (2,)): 1,
                   (None, frozenset({2}), (1,)): 1}


def test_dhat_squares_to_zero_in_pc_algebra():
    rng = random.Random(12)
    for _ in range(120):
        k = random_flag(rng, max_m=5)
        alg = PCAlgebra(k)
        i_set, alpha = random_basis_element(rng, k)
        start = {(i_set, alpha): alg.one()}
        once = dhat_resolution(alg, start)
        twice = dhat_resolution(alg, once)
        assert all(v.is_zero() for v in twice.values()) or twice == {}


def test_g_map_examples():
    out = g_map(PENTAGON, {1, 3}, [(frozenset({1}), 1)])
    assert out == {(frozenset({3}), (1,)): 1}
    out = g_map(PENTAGON, {1, 3}, [(frozenset({3}), 1)])
    assert out == {(frozenset({1}), (3,)): -1}
    with pytest.raises(FaceOutsideJ):
        g_map(PENTAGON, {1, 3}, [(frozenset({2}), 1)])
    with pytest.raises(FaceOutsideJ):
        g_map(PENTAGON, {1, 3}, [(frozenset({1, 3}), 1)])  # not a face of K


def test_bar_cycle_refuses_cycle_outside_j():
    # the hexagon's generating cycle handed J = {1..5} is no chain of K_J
    hexagon = cycle_complex(6)
    _, (kappa,) = reduced_homology(hexagon, range(1, 7), ZZ, degree=2)
    outside = SimplicialCycle(j=frozenset(range(1, 6)), dimension=1,
                              terms=kappa.terms)
    with pytest.raises(FaceOutsideJ):
        bar_cycle(PCAlgebra(hexagon, ZZ), outside)


def test_g_is_chain_map():
    rng = random.Random(13)
    checks = 0
    for _ in range(60):
        k = random_flag(rng, max_m=6)
        full = [j for j in all_subsets(k.m) if j]
        j_set = rng.choice(full)
        sizes = sorted({len(f) for f in k.faces() if f and f <= j_set})
        if not sizes:
            continue
        n = rng.choice(sizes)
        faces = [f for f in k.faces() if len(f) == n and f <= j_set]
        chain = SimplicialCycle(
            j=frozenset(j_set), dimension=n - 1,
            terms=tuple((f, rng.randint(-2, 2)) for f in faces))
        from looppres.simplicial import chain_boundary
        boundary = chain_boundary(k, chain)
        lhs = g_map(k, j_set, boundary.items())
        rhs = dbar_element(k, g_map(k, j_set, chain.terms))
        assert lhs == rhs
        checks += 1
    assert checks >= 40


def invariants_match(a, b):
    return a.rank == b.rank and a.torsion == b.torsion


def test_koszul_strand_matches_reduced_homology():
    complexes = [PENTAGON, SQUARE, simplex(3), disjoint_points(3),
                 path_complex(4), octahedron(),
                 clique_complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])]
    rings = [ZZ, QQ, GF(2), GF(3)]
    for k in complexes:
        for j_set in all_subsets(k.m):
            for ring in rings:
                for n in range(0, len(j_set) + 2):
                    a = koszul_homology(k, j_set, ring, degree=n)
                    b, _ = reduced_homology(k, j_set, ring, degree=n)
                    assert invariants_match(a, b), (k, sorted(j_set), n, ring)


def test_koszul_invariants_match_koszul_homology():
    # the integer strand read by universal coefficients against the strand
    # reduced over each ring with lifted cycles; rp2_minimal() has Z/2 at
    # J = [6] in degree 2
    rng = random.Random(41)
    complexes = [rp2_minimal()] + [random_flag(rng, max_m=7)
                                   for _ in range(10)]
    top = frozenset(range(1, 7))
    assert koszul_invariants(complexes[0], top, ZZ)[2].torsion == [2]
    for k in complexes:
        for j_set in all_subsets(k.m):
            for ring in (ZZ, QQ, GF(2), GF(3)):
                fast = koszul_invariants(k, j_set, ring)
                assert len(fast) == len(j_set) + 2
                for n, b in enumerate(fast):
                    a = koszul_homology(k, j_set, ring, degree=n)
                    assert (b.rank, b.torsion, b.generators) == (
                        a.rank, a.torsion, []), (k, sorted(j_set), ring, n)


def test_koszul_invariants_chain_condition_enforced(monkeypatch):
    import looppres.torbar as torbar

    def bad_strand(k, j_set, n, ring=ZZ):
        return ExactMatrix.from_rows([[1]], ZZ)
    monkeypatch.setattr(torbar, "strand_matrix", bad_strand)
    with pytest.raises(ChainConditionViolated):
        koszul_invariants(PENTAGON, {1, 2}, ZZ)


def test_strand_basis_is_squarefree_faces():
    assert strand_basis(PENTAGON, {1, 2, 3}, 2) == [
        frozenset({1, 2}), frozenset({2, 3})]


def test_bar_cycle_n1_two_points():
    alg = PCAlgebra(PENTAGON)
    kappa = SimplicialCycle(
        j=frozenset({1, 3}), dimension=0,
        terms=((frozenset({3}), 1), (frozenset({1}), -1)))
    cyc = bar_cycle(alg, kappa)
    c31 = commutator_value(alg, {3}, 1)
    assert cyc.terms == {(c31,): -1}
    assert verify_bar_cycle(cyc)


def test_bar_cycle_n2_square():
    alg = PCAlgebra(SQUARE)
    _, cycles = reduced_homology(SQUARE, range(1, 5), ZZ, degree=2)
    (kappa,) = cycles
    cyc = bar_cycle(alg, kappa)
    x = commutator_value(alg, {3}, 1)
    y = commutator_value(alg, {4}, 2)
    assert set(cyc.terms) == {(x, y), (y, x)}
    # the two orders carry opposite signs: theta({3},{4})=0, theta({4},{3})=1
    assert cyc.terms[(x, y)] == -cyc.terms[(y, x)]
    assert verify_bar_cycle(cyc)
    # flipping the relative sign breaks closedness
    broken = BarElement(alg, {(x, y): 1, (y, x): 1})
    assert not verify_bar_cycle(broken)


def test_bar_cycle_n2_pentagon_has_five_partitions():
    alg = PCAlgebra(PENTAGON)
    _, cycles = reduced_homology(PENTAGON, range(1, 6), ZZ, degree=2)
    (kappa,) = cycles
    cyc = bar_cycle(alg, kappa)
    assert len(cyc.terms) == 10  # five commutator pairs, both orders each
    assert verify_bar_cycle(cyc)


def test_bar_cycle_matches_pairform_termwise():
    rng = random.Random(14)
    complexes = [SQUARE, PENTAGON, cycle_complex(6),
                 clique_complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])]
    for k in complexes:
        alg = PCAlgebra(k)
        for j_set in all_subsets(k.m):
            if len(j_set) < 2:
                continue
            _, cycles = reduced_homology(k, j_set, ZZ, degree=2)
            for kappa in cycles:
                assert bar_cycle(alg, kappa) == bar_cycle_pairform(alg, kappa)


def test_bar_cycle_rejects_non_cycles():
    alg = PCAlgebra(PENTAGON)
    chain = SimplicialCycle(j=frozenset({1, 2}), dimension=0,
                            terms=((frozenset({1}), 1),))
    with pytest.raises(NotACycle):
        bar_cycle(alg, chain)


def test_bar_differential_examples():
    alg = PCAlgebra(PENTAGON)
    u1 = alg.generator(1)
    u2 = alg.generator(2)
    # [u1|u1]: d = [u1bar * u1] = [-u1*u1] = 0
    elem = BarElement(alg, {(u1, u1): 1})
    assert verify_bar_cycle(elem)
    # [u1|u3]: {1,3} is a non-edge, so u1bar*u3 = u1u3 != 0
    u3 = alg.generator(3)
    elem = BarElement(alg, {(u1, u3): 1})
    assert not verify_bar_cycle(elem)
    # [u1|u2] with {1,2} an edge: u1bar*u2 = u1u2, still nonzero in k[K]^!
    elem = BarElement(alg, {(u1, u2): 1})
    d = bar_differential(elem)
    assert d.terms == {(u1 * u2,): 1}


def test_bar_cycles_closed_all_generating_cycles_m5():
    rng = random.Random(15)
    complexes = [SQUARE, PENTAGON, simplex(4), disjoint_points(4),
                 octahedron()]
    for _ in range(6):
        complexes.append(random_flag(rng, max_m=5))
    for k in complexes:
        alg = PCAlgebra(k)
        for j_set in all_subsets(k.m):
            for n in (1, 2, 3):
                _, cycles = reduced_homology(k, j_set, ZZ, degree=n)
                for kappa in cycles:
                    assert verify_bar_cycle(bar_cycle(alg, kappa)), \
                        (k, sorted(j_set), n)
