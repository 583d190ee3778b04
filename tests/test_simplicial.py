import itertools
import math
import random

import pytest

from corpus import gnp_flag, rp2_flag12

from looppres.errors import (
    ChainConditionViolated,
    EmptySubset,
    VertexOutOfRange,
)
from looppres.exactlin import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    chain_homology_invariants,
    column_invariant_factors,
    integer_columns,
    module_gen_rel,
)
import looppres.simplicial as simplicial
from looppres.presentation import Context, build_presentation
from looppres.simplicial import (
    FaceIndex,
    SimplicialComplex,
    all_subsets,
    boundary_matrix,
    chain_boundary,
    clique_complex,
    cycle_complex,
    disjoint_points,
    f_h_vectors,
    full_subcomplex,
    graph_complex,
    is_cycle,
    is_flag,
    octahedron,
    path_components,
    path_complex,
    reduced_betti0,
    reduced_euler_polynomial,
    reduced_homology,
    reduced_homology_invariants,
    rp2_minimal,
    simplex,
    theta_set,
)
from looppres.torbar import koszul_invariants

PENTAGON = cycle_complex(5)
SQUARE = cycle_complex(4)


def test_construction_normalizes_facets():
    k = SimplicialComplex(3, [[1, 2], [2, 1], [1], [2, 3]])
    assert k.facets == [frozenset({1, 2}), frozenset({2, 3})]
    assert k.has_face([2]) and k.has_face([]) and not k.has_face([1, 3])


def test_ghost_vertices_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [[1, 2]])


def test_vertex_cap_configurable():
    facets = [[i] for i in range(1, 26)]
    with pytest.raises(ValueError):
        SimplicialComplex(25, facets)  # default cap is 24
    k = SimplicialComplex(25, facets, max_m=30)
    assert k.m == 25


def test_is_flag():
    ok, witness = is_flag(PENTAGON)
    assert ok and witness is None
    hollow = graph_complex(3, [(1, 2), (2, 3), (1, 3)])
    ok, witness = is_flag(hollow)
    assert not ok and witness == frozenset({1, 2, 3})
    ok, witness = is_flag(simplex(3))
    assert ok
    # cliques are walked by size, so a hollow 4-clique fails on a triangle
    big = graph_complex(4, [(i, j) for i in range(1, 5)
                            for j in range(i + 1, 5)])
    ok, witness = is_flag(big)
    assert not ok and witness == frozenset({1, 2, 3})
    # the witness is the least minimal non-face of the smallest size: {5, 6, 9}
    # before {5, 8, 9}, whatever order the set of 5's neighbors iterates in
    k = SimplicialComplex(9, [[2], [1, 4], [5, 6, 8], [5, 7, 9], [6, 8, 9],
                              [3, 7, 8, 9]])
    assert is_flag(k) == (False, frozenset({5, 6, 9}))


def test_is_flag_witness_is_minimal():
    # the witness is a non-face whose (|w|-1)-subsets are all faces; random
    # facets, half the time with the boundary of a simplex of 3 to 5 vertices
    rng = random.Random(41)
    failures = large = 0
    for _ in range(300):
        m = rng.randint(3, 7)
        facets = [rng.sample(range(1, m + 1), rng.randint(1, min(m, 4)))
                  for _ in range(rng.randint(2, 8))]
        facets += [[v] for v in range(1, m + 1)]
        if rng.random() < 0.5:
            hollow = rng.sample(range(1, m + 1), rng.randint(3, min(m, 5)))
            facets += [[v for v in hollow if v != w] for w in hollow]
        k = SimplicialComplex(m, facets)
        ok, witness = is_flag(k)
        if ok:
            continue
        failures += 1
        large += len(witness) > 3
        assert len(witness) >= 3 and not k.has_face(witness)
        assert all(k.has_face(witness - {v}) for v in witness)
    assert failures > 100 and large > 10


def pairwise_adjacent(m, edges):
    """Every nonempty vertex set of the graph on [m] whose vertices are
    pairwise adjacent, by brute force over all subsets."""
    return {j for j in all_subsets(m) if j and all(
        frozenset(e) in edges for e in itertools.combinations(j, 2))}


def test_one_clique_walk_matches_brute_force():
    # clique_complex and is_flag share one clique walk; on seeded graphs
    # (m <= 8) and facet lists (m <= 10), against all 2^m vertex sets: the
    # nonempty faces of a clique complex are the pairwise-adjacent sets, and
    # is_flag holds iff each such set of k's graph is a face of k, its
    # witness the least by (size, sorted vertices) of those that are not
    rng = random.Random(2305)
    for _ in range(60):
        m = rng.randint(1, 8)
        edges = {frozenset((a, b)) for a in range(1, m + 1)
                 for b in range(a + 1, m + 1) if rng.random() < 0.6}
        k = clique_complex(m, [sorted(e) for e in edges])
        assert k.faces() - {frozenset()} == pairwise_adjacent(m, edges)
    failures = 0
    for _ in range(200):
        m = rng.randint(3, 10)
        facets = [rng.sample(range(1, m + 1), rng.randint(1, min(m, 4)))
                  for _ in range(rng.randint(2, 10))]
        k = SimplicialComplex(m, facets + [[v] for v in range(1, m + 1)])
        missing = sorted((j for j in pairwise_adjacent(
            m, set(k.faces_of_size(2))) if not k.has_face(j)),
            key=lambda j: (len(j), sorted(j)))
        assert is_flag(k) == ((False, missing[0]) if missing else (True, None))
        failures += bool(missing)
    assert 50 < failures < 150


def test_full_subcomplex():
    sub = full_subcomplex(PENTAGON, {1, 3})
    assert sub.m == 2 and sub.facets == [frozenset({1}), frozenset({2})]
    assert sub.vertex_labels == (1, 3)
    sub2 = full_subcomplex(PENTAGON, {1, 2, 3})
    assert sub2.facets_original_labels() == [[1, 2], [2, 3]]
    everything = full_subcomplex(PENTAGON, range(1, 6))
    assert everything.facets == PENTAGON.facets


def test_theta_set():
    assert theta_set(PENTAGON, {1, 3}) == frozenset({1})
    assert theta_set(PENTAGON, range(1, 6)) == frozenset()
    assert theta_set(SQUARE, {2, 4}) == frozenset({2})
    with pytest.raises(EmptySubset):
        theta_set(PENTAGON, set())


def test_theta_counts_components():
    rng = random.Random(2)
    for _ in range(30):
        m = rng.randint(1, 6)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.4]
        k = graph_complex(m, edges)
        for j in all_subsets(m):
            if not j:
                continue
            assert len(theta_set(k, j)) + 1 == len(path_components(k, j))
            assert reduced_betti0(k, j) == len(theta_set(k, j))


def test_path_components_match_union_find():
    rng = random.Random(47)
    for _ in range(10):
        m = rng.randint(4, 9)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < rng.choice([0.2, 0.35, 0.5])]
        k = clique_complex(m, edges)
        for j in all_subsets(m):
            parent = {v: v for v in j}

            def root(v):
                while parent[v] != v:
                    v = parent[v]
                return v
            for a, b in edges:
                if a in j and b in j:
                    parent[root(a)] = root(b)
            groups = {}
            for v in sorted(j):
                groups.setdefault(root(v), []).append(v)
            want = sorted(tuple(g) for g in groups.values())
            assert path_components(k, j) == want, (m, edges, sorted(j))


def test_boundary_squares_to_zero():
    for k in (PENTAGON, SQUARE, simplex(4), octahedron(), rp2_minimal()):
        for n in range(1, k.dim() + 2):
            d1 = boundary_matrix(k, frozenset(range(1, k.m + 1)), n)
            d2 = boundary_matrix(k, frozenset(range(1, k.m + 1)), n + 1)
            assert d1.mul(d2).is_zero()


def test_pentagon_h1():
    inv, cycles = reduced_homology(PENTAGON, range(1, 6), ZZ, degree=2)
    assert inv.rank == 1 and inv.torsion == []
    (cyc,) = cycles
    assert is_cycle(PENTAGON, cyc)
    assert sorted(tuple(sorted(f)) for f, _ in cyc.terms) == [
        (1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_two_points_h0():
    inv, cycles = reduced_homology(PENTAGON, {1, 3}, ZZ, degree=1)
    assert inv.rank == 1
    (cyc,) = cycles
    coeffs = {tuple(sorted(f)): c for f, c in cyc.terms}
    assert sorted(coeffs) == [(1,), (3,)]
    assert coeffs[(1,)] + coeffs[(3,)] == 0  # difference of two vertices


def test_rp2_torsion():
    k = rp2_minimal()
    # sanity of the hardcoded triangulation before trusting it as an oracle
    f, _, d = f_h_vectors(k)
    assert d == 3 and f == (1, 6, 15, 10)
    edge_count = {}
    for tri in k.faces_of_size(3):
        for e in [frozenset(p) for p in
                  [(a, b) for a in tri for b in tri if a < b]]:
            edge_count[e] = edge_count.get(e, 0) + 1
    assert all(c == 2 for c in edge_count.values())

    inv, cycles = reduced_homology(k, range(1, 7), ZZ, degree=2)
    assert inv.rank == 0 and inv.torsion == [2]
    (cyc,) = cycles
    assert is_cycle(k, cyc)
    inv2, _ = reduced_homology(k, range(1, 7), GF(2), degree=3)
    assert inv2.rank == 1  # H_2(RP^2; F_2) = F_2
    invq, _ = reduced_homology(k, range(1, 7), QQ, degree=3)
    assert invq.rank == 0


def test_empty_complex_convention():
    inv, cycles = reduced_homology(PENTAGON, set(), ZZ, degree=0)
    assert inv.rank == 1 and inv.torsion == []
    (cyc,) = cycles
    assert cyc.terms == ((frozenset(), 1),)


def test_universal_coefficients_consistency():
    rng = random.Random(17)
    complexes = [rp2_minimal(), octahedron(), PENTAGON]
    for _ in range(10):
        m = rng.randint(2, 5)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.5]
        complexes.append(clique_complex(m, edges))
    for k in complexes:
        full = frozenset(range(1, k.m + 1))
        for p in (2, 3):
            ring = GF(p)
            prev_tor = 0
            for n in range(0, k.dim() + 3):
                invz, _ = reduced_homology(k, full, ZZ, degree=n)
                invq, _ = reduced_homology(k, full, QQ, degree=n)
                invp, _ = reduced_homology(k, full, ring, degree=n)
                assert invq.rank == invz.rank
                tor_at_p = sum(1 for t in invz.torsion if t % p == 0)
                assert invp.rank == invz.rank + tor_at_p + prev_tor
                prev_tor = tor_at_p


def test_homology_invariants_match_cycle_homology():
    rng = random.Random(29)
    complexes = [rp2_minimal()]
    for _ in range(10):
        m = rng.randint(4, 7)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.5]
        complexes.append(clique_complex(m, edges))
    for k in complexes:
        for j in all_subsets(k.m):
            for ring in (ZZ, QQ, GF(2), GF(3)):
                for n in range(4):
                    a, cycles = reduced_homology(k, j, ring, degree=n)
                    b = reduced_homology_invariants(k, j, ring, degree=n)
                    assert (b.rank, b.torsion, b.generators) == (
                        a.rank, a.torsion, []), (k, sorted(j), ring, n)
                    if n == 1:
                        assert_generate_h0(k, j, ring, a, cycles)


def assert_generate_h0(k, j, ring, inv, cycles):
    """The H-tilde_0 cycles are cycles, one per unit of rank, and their
    coefficient sums over the path components of K_J span the lattice of
    sum-zero vectors: they generate H-tilde_0(K_J; ring)."""
    assert all(is_cycle(k, kappa, ring) for kappa in cycles)
    assert len(cycles) == inv.rank
    comps = [set(c) for c in path_components(k, j)]
    sums = [[sum(c for f, c in kappa.terms if f <= comp) for comp in comps]
            for kappa in cycles]
    assert all(not ring.settle({0: sum(row)}) for row in sums)
    # less min(J)'s component, the sums are a square matrix with unit det
    factors = column_invariant_factors(
        {t: {i: int(x) for i, x in enumerate(row[1:]) if x}
         for t, row in enumerate(sums)})
    assert len(factors) == len(sums) == max(len(comps) - 1, 0)
    assert ring.is_unit(ring.from_int(math.prod(factors))), (sorted(j), ring)


def test_rp2_flag12_counts_through_invariants():
    k = rp2_flag12()
    assert is_flag(k) == (True, None)
    assert f_h_vectors(k)[0] == (1, 12, 33, 22)
    subsets = [j for j in all_subsets(k.m) if j]
    assert sum(reduced_betti0(k, j) for j in subsets) == 714
    for ring, relations in ((ZZ, 2762), (GF(2), 2762), (QQ, 2761)):
        assert sum(reduced_homology_invariants(k, j, ring, 2).gen_count()
                   for j in subsets) == relations, ring
    top = frozenset(range(1, 13))
    h1 = {ring: reduced_homology_invariants(k, top, ring, 2)
          for ring in (ZZ, GF(2), QQ)}
    assert (h1[ZZ].rank, h1[ZZ].torsion) == (0, [2])
    assert (h1[GF(2)].rank, h1[GF(2)].torsion) == (1, [])
    assert h1[QQ].is_zero()


def _random_facets(rng, m):
    """A seeded facet list on [m], flag or not, every vertex a face."""
    facets = [rng.sample(range(1, m + 1), rng.randint(2, min(4, m)))
              for _ in range(rng.randint(1, 2 * m))]
    return SimplicialComplex(m, facets + [[v] for v in range(1, m + 1)])


def test_h1_rule_matches_elimination():
    # reduced_homology_invariants reads H_1 off the graph and the triangle
    # columns; the face index eliminates both boundary maps
    rng = random.Random(26)
    cases = [(k, all_subsets(k.m)) for k in (
        graph_complex(3, [(1, 2), (2, 3), (1, 3)]),  # H_1 = Z, no 2-face
        simplex(0), disjoint_points(4), cycle_complex(6), rp2_minimal())]
    cases += [(_random_facets(rng, m), all_subsets(m)) for m in range(3, 8)
              for _ in range(2)]
    cases += [(gnp_flag(m, seed), all_subsets(m)) for m, seed in
              ((5, 1), (6, 2), (7, 3))]
    cases.append((rp2_flag12(), [frozenset(range(1, 13))] + [
        frozenset(rng.sample(range(1, 13), rng.randint(1, 12)))
        for _ in range(12)]))
    for k, subsets in cases:
        for j in subsets:
            for ring in (ZZ, QQ, GF(2), GF(3)):
                a = reduced_homology_invariants(k, j, ring, 2)
                b = k.index.homology_invariants(j, ring, (2, 3))[0]
                assert (a.rank, a.torsion) == (b.rank, b.torsion), (
                    k, sorted(j), ring)
    assert reduced_homology_invariants(
        rp2_minimal(), range(1, 7), ZZ, 2).torsion == [2]


@pytest.mark.parametrize("how", ["flip", "drop"])
def test_homology_invariants_chain_condition_enforced(how):
    # reduced_homology_invariants reads the complex's own index, and checks
    # the triangle columns against its edge boundaries; corrupt that of a
    # fresh complex, never a shared one
    k = octahedron()
    full = frozenset(range(1, 7))
    assert reduced_homology_invariants(k, full, ZZ, degree=2).is_zero()
    _corrupt(k.index, how)
    with pytest.raises(ChainConditionViolated):
        reduced_homology_invariants(k, full, ZZ, degree=2)
    with pytest.raises(ChainConditionViolated):
        reduced_homology(k, full, ZZ, degree=2)


def test_h1_representatives_generate():
    # adding the representatives to the boundaries kills the quotient
    for k in (PENTAGON, SQUARE, rp2_minimal(), octahedron()):
        full = frozenset(range(1, k.m + 1))
        inv, cycles = reduced_homology(k, full, ZZ, degree=2)
        d1 = boundary_matrix(k, full, 1)  # unused; just exercising the API
        d_edges = boundary_matrix(k, full, 2)
        d_tris = boundary_matrix(k, full, 3)
        basis = [f for f in k.faces_of_size(2)]
        index = {f: i for i, f in enumerate(basis)}
        cols = [d_tris.column(j) for j in range(d_tris.cols)]
        for cyc in cycles:
            vec = [0] * len(basis)
            for f, c in cyc.terms:
                vec[index[f]] = c
            cols.append(vec)
        if not cols:
            continue
        stacked = ExactMatrix.from_rows(
            [[col[i] for col in cols] for i in range(len(basis))],
            ZZ, cols=len(cols))
        # quotient of the cycle lattice by boundaries + representatives
        from looppres.exactlin import homology_with_representatives
        quotient = homology_with_representatives(d_edges, stacked, ZZ)
        assert quotient.is_zero()


def test_full_subcomplex_homology_consistency():
    # homology through (K, J) equals homology of the relabeled subcomplex
    rng = random.Random(23)
    for _ in range(25):
        m = rng.randint(2, 6)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.5]
        k = clique_complex(m, edges)
        j = frozenset(v for v in range(1, m + 1) if rng.random() < 0.6)
        if not j:
            continue
        sub = full_subcomplex(k, j)
        full_j = frozenset(range(1, sub.m + 1))
        for n in range(0, len(j) + 2):
            a, _ = reduced_homology(k, j, ZZ, degree=n)
            b, _ = reduced_homology(sub, full_j, ZZ, degree=n)
            assert (a.rank, a.torsion) == (b.rank, b.torsion)


def test_f_h_vectors():
    f, h, d = f_h_vectors(PENTAGON)
    assert (f, h, d) == ((1, 5, 5), (1, 3, 1), 2)
    f, h, d = f_h_vectors(SQUARE)
    assert (f, h, d) == ((1, 4, 4), (1, 2, 1), 2)
    for m in range(1, 6):
        f, h, d = f_h_vectors(simplex(m))
        assert h == (1,) + (0,) * m


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_reduced_euler_polynomial():
    # square: negative of the polynomial equals (1-t^2)^2
    poly = reduced_euler_polynomial(SQUARE)
    assert [-c for c in poly] == [1, 0, -2, 0, 1]
    assert reduced_euler_polynomial(simplex(3)) == [-1, 0, 0, 0]
    assert reduced_euler_polynomial(disjoint_points(2)) == [-1, 0, 1]
    # brute force cross-check over all subsets for a few complexes
    from looppres.simplicial import reduced_euler_characteristic
    for k in (PENTAGON, SQUARE, path_complex(4), disjoint_points(3)):
        brute = [0] * (k.m + 1)
        for j in all_subsets(k.m):
            brute[len(j)] += reduced_euler_characteristic(k, j)
        assert brute == reduced_euler_polynomial(k)


def test_chain_boundary_matches_matrix():
    k = rp2_minimal()
    full = frozenset(range(1, 7))
    rng = random.Random(3)
    faces = k.faces_of_size(3)
    from looppres.simplicial import SimplicialCycle
    chain = SimplicialCycle(
        j=full, dimension=2,
        terms=tuple((f, rng.randint(-2, 2)) for f in faces))
    bmap = chain_boundary(k, chain)
    mat = boundary_matrix(k, full, 3)
    vec = [c for _, c in chain.terms]
    edges = k.faces_of_size(2)
    expected = {}
    for i, e in enumerate(edges):
        val = sum(mat.data[i][j] * vec[j] for j in range(len(faces)))
        if val:
            expected[e] = val
    assert bmap == expected


def test_all_subsets_in_size_then_sorted_order():
    for m in range(13):
        masks = range(1 << m)
        old = sorted((frozenset(i + 1 for i in range(m) if mask >> i & 1)
                      for mask in masks), key=lambda s: (len(s), sorted(s)))
        assert all_subsets(m) == old, m


def _check_index_against_dense(k, subsets):
    faces = k.index
    for j in subsets:
        for n in range(-2, 5):  # sizes below 0 and above the top are empty
            # the columns are boundary_matrix's, keyed by index positions,
            # in the same order, so the elimination pivots the same way
            below, cols = faces.columns(j, (n - 1, n))
            local = {key: t for t, key in enumerate(below)}
            dense = integer_columns(boundary_matrix(k, j, n))
            assert list(dense) == list(range(len(cols)))
            assert [[(local[r], x) for r, x in col.items()]
                    for col in cols.values()] == [
                        list(col.items()) for col in dense.values()]
        for ring in (ZZ, QQ, GF(2), GF(3)):
            for n in range(-1, 4):
                want = chain_homology_invariants(
                    [boundary_matrix(k, j, s) for s in (n, n + 1)], ring)
                assert faces.homology_invariants(j, ring, (n, n + 1)) == \
                    want, (k, sorted(j), ring, n)
        # the components against H-tilde_0 by elimination
        assert reduced_betti0(k, j) == \
            faces.homology_invariants(j, ZZ, (1, 2))[0].rank


@pytest.mark.parametrize("name", ["rp2_minimal", "octahedron", "gnp"])
def test_face_index_matches_dense_boundaries(name):
    if name == "gnp":
        rng = random.Random(15)
        complexes = [gnp_flag(rng.randint(4, 8), seed, p=rng.uniform(0.3, 0.7))
                     for seed in range(1, 11)]
    else:
        complexes = [rp2_minimal() if name == "rp2_minimal" else octahedron()]
    for k in complexes:
        _check_index_against_dense(k, all_subsets(k.m))


def test_face_index_matches_dense_boundaries_flag_rp2():
    k = rp2_flag12()
    rng = random.Random(12)
    sample = [frozenset(rng.sample(range(1, 13), rng.randint(3, 11)))
              for _ in range(12)]
    _check_index_against_dense(k, [frozenset(range(1, 13))] + sample)
    top = k.index.homology_invariants(range(1, 13), ZZ, range(15))
    assert [(h.rank, h.torsion) for h in top] == [
        (0, [])] * 2 + [(0, [2])] + [(0, [])] * 11


def _corrupt(faces, how):
    """Flip the sign of, or drop, the first boundary entry of the first
    triangle of a face index: only ever a fresh complex's, since the index
    is the complex's own."""
    (pos, sign), *rest = faces.boundary[3][0]
    faces.boundary[3][0] = tuple(rest) if how == "drop" else (
        ((pos, -sign),) + tuple(rest))


@pytest.mark.parametrize("how", ["flip", "drop"])
def test_corrupt_face_index_violates_chain_condition(how):
    k = octahedron()
    full = frozenset(range(1, 7))
    assert k.index.homology_invariants(full, ZZ, (2, 3))[0].rank == 0
    _corrupt(k.index, how)
    with pytest.raises(ChainConditionViolated):
        k.index.homology_invariants(full, ZZ, (2, 3))
    # the build's per-J sweep reads the complex's index
    with pytest.raises(ChainConditionViolated):
        build_presentation(Context(k), ZZ)


def test_face_index_refuses_vertices_outside_range():
    faces = PENTAGON.index
    for j in ({1, 3, 9}, {0, 1, 3}, {-1}):
        for call in (lambda: faces.columns(j, (2,)),
                     lambda: faces.components(j),
                     lambda: faces.homology_invariants(j, ZZ, (2, 3))):
            with pytest.raises(VertexOutOfRange):
                call()


def test_clique_complex_refuses_vertices_outside_range():
    # the adjacency comes from graph_complex, which checks every vertex
    for edges in ([(1, 5)], [(0, 1)], [(1, 2), (-1, 3)]):
        with pytest.raises(VertexOutOfRange):
            clique_complex(3, edges)
    for edges in ([(1, 2, 3)], [(2,)]):  # an edge is a pair
        with pytest.raises(ValueError):
            clique_complex(3, edges)
    assert clique_complex(3, [(1, 2), (2, 3), (1, 3)]) == simplex(3)


def _bfs_distances(k, j, v):
    """Graph distances from v in K_J, layer by layer on frozensets."""
    dist, layer, step = {v: 0}, {v}, 0
    while layer:
        step += 1
        layer = {w for u in layer for w in k.adjacency[u]
                 if w in j and w not in dist}
        dist.update(dict.fromkeys(layer, step))
    return dist


def test_distances_match_frozenset_bfs():
    rng = random.Random(20)
    for m in range(1, 9):
        for seed in range(1, 4):
            k = gnp_flag(m, seed, p=rng.uniform(0.2, 0.6))
            for j in all_subsets(m):
                for v in j:
                    assert k.index.distances(j, v) == _bfs_distances(k, j, v)
    faces = PENTAGON.index
    for j, v in (({1, 2}, 3), ({1, 2}, 0), ({1, 2}, 6), ({1, 9}, 1)):
        with pytest.raises(VertexOutOfRange):
            faces.distances(j, v)


def test_one_mask_per_subset_query(monkeypatch):
    # J is checked once per query, not once per size
    calls = []
    real = simplicial._vertex_mask

    def counted(m, j):
        calls.append(j)
        return real(m, j)
    monkeypatch.setattr(simplicial, "_vertex_mask", counted)
    k = octahedron()
    for j in all_subsets(k.m)[1:]:
        for query in (
                lambda: k.index.homology_invariants(j, ZZ, range(len(j) + 3)),
                lambda: koszul_invariants(k, j, ZZ)):
            calls.clear()
            query()
            assert len(calls) == 1, sorted(j)


def test_face_index_has_no_faces_of_negative_size():
    # a negative size once wrapped round to the top size: columns(J, -1)
    # were the edges' boundaries, and H-tilde_{-2} of the pentagon read the
    # rank 1 of its H-tilde_1
    faces = FaceIndex(PENTAGON)
    full = range(1, 6)
    edges, empty = faces.columns(full, (2, 0))
    assert edges and empty == {0: {}}
    assert faces.columns(full, (-3, -1, 3)) == [{}, {}, {}]
    assert faces.homology_invariants(full, ZZ, (-1, 0))[0].is_zero()
    assert reduced_homology_invariants(PENTAGON, full, ZZ, -1).is_zero()
    inv, cycles = reduced_homology(PENTAGON, full, ZZ, degree=-1)
    assert inv.is_zero() and cycles == []
