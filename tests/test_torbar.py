import random

import pytest

from corpus import gnp_flag
from looppres.errors import ChainConditionViolated, FaceOutsideJ, NotACycle
from looppres.exactlin import GF, QQ, ZZ
from looppres.freealg import koszul_theta, ordered_splits
from looppres.pcalg import PCAlgebra, PCElement, SquarefreeModel, \
    commutator_value
from looppres.presentation import Context, relation_for_cycle
from looppres.simplicial import (
    SimplicialCycle,
    all_subsets,
    clique_complex,
    cycle_complex,
    disjoint_points,
    faces_within,
    is_cycle,
    octahedron,
    path_complex,
    reduced_homology,
    rp2_minimal,
    simplex,
)
from looppres.torbar import (
    BarElement,
    alpha_from_face,
    bar_cycle,
    bar_cycle_closed,
    bar_differential,
    dbar,
    dbar_element,
    dhat,
    dhat_augmented,
    dhat_resolution,
    epsilon_sign,
    g_map,
    koszul_homology,
    koszul_invariants,
    strand_columns,
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

    def bad_strand(faces, j_set, sizes):
        return [{0: {0: 1}} for _ in sizes]
    monkeypatch.setattr(torbar, "strand_columns", bad_strand)
    with pytest.raises(ChainConditionViolated):
        koszul_invariants(PENTAGON, {1, 2}, ZZ)


def test_strand_basis_is_squarefree_faces():
    (cols,) = strand_columns(PENTAGON.index, {1, 2, 3}, (2,))
    assert list(cols) == [
        0b011, 0b110]  # the faces {1, 2} and {2, 3}


def face_mask(face):
    return sum(1 << (v - 1) for v in face)


def test_strand_columns_are_dbar():
    # every column of the popcount kernel is dbar(u_{J-L} (x) chi_L), rows
    # mapped to masks, in faces_within order; rp2_minimal() has torsion
    rng = random.Random(43)
    complexes = [rp2_minimal(), PENTAGON, octahedron()] + [
        random_flag(rng, max_m=7) for _ in range(10)]
    for k in complexes:
        for j_set in all_subsets(k.m):
            sizes = range(-1, len(j_set) + 3)
            for n, got in zip(sizes, strand_columns(k.index, j_set, sizes),
                              strict=True):
                want = {}
                for face in faces_within(k, j_set, n):
                    image = dbar(k, j_set - face, alpha_from_face(face))
                    assert all(i2 | set(a2) == j_set for i2, a2 in image)
                    want[face_mask(face)] = {
                        face_mask(a2): c for (_, a2), c in image.items()}
                assert list(got.items()) == list(want.items()), \
                    (k, sorted(j_set), n)


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


def bar_cycle_pairform(algebra, kappa):
    """The bar-degree-2 cycle in its two-orders form (the n = 2 special case).

    For kappa = sum lambda_{ij} [{i,j}]:
        sum_{i<j} (-1)^{|J_<i|+|J_<j|} lambda_{ij}
        sum_{J\\ij = A+B, max(A)>i, max(B)>j}
        (-1)^{theta(A,B)} [c(A,u_i)|c(B,u_j)]
        + (-1)^{theta(B,A)} [c(B,u_j)|c(A,u_i)].
    Used to confirm termwise agreement with the general formula.
    """
    k = algebra.complex
    ring = algebra.ring
    if not is_cycle(k, kappa, ring):
        raise NotACycle("chain has nonzero boundary")
    j_set = frozenset(kappa.j)
    out = BarElement(algebra)
    for face, lam in kappa.terms:
        i, j = sorted(face)
        eps = epsilon_sign(face, j_set)
        base = lam if eps == 1 else ring.neg(lam)
        for a, b in ordered_splits(j_set - face, (i, j)):
            ca = commutator_value(algebra, a, i)
            cb = commutator_value(algebra, b, j)
            c1 = base if koszul_theta(a, b) % 2 == 0 else ring.neg(base)
            c2 = base if koszul_theta(b, a) % 2 == 0 else ring.neg(base)
            out.add_term((ca, cb), c1)
            out.add_term((cb, ca), c2)
    return out


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


def test_bar_cycles_refuse_faces_outside_k():
    # {1,3} + {3,5} - {1,5} is closed in the simplex on J = {1,3,5}, but no
    # edge of it is in the pentagon; a chain of vertices called dimension 1
    # is refused too
    model = Context(PENTAGON).model(ZZ)
    triangle = SimplicialCycle(j=frozenset({1, 3, 5}), dimension=1, terms=(
        (frozenset({1, 3}), 1), (frozenset({3, 5}), 1),
        (frozenset({1, 5}), -1)))
    points = SimplicialCycle(j=frozenset({1, 3}), dimension=1, terms=(
        (frozenset({1}), -1), (frozenset({3}), 1)))
    for chain in (triangle, points):
        with pytest.raises(NotACycle):
            bar_cycle(model.algebra, chain)
        with pytest.raises(NotACycle):
            bar_cycle_closed(chain, model)
    with pytest.raises(NotACycle, match=r"edge \[1, 3\] not in K"):
        relation_for_cycle(PENTAGON, triangle)


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
    model = SquarefreeModel(alg)
    d = bar_differential(elem, model)
    assert d == [((model.from_element(u1 * u2),), 1)]


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


def normal_form_closed(cyc):
    """The bar differential of ``cyc`` vanishes, with every product and
    every letter's expansion taken on normal words."""
    out = {}
    for tensor, coeff in cyc.terms.items():
        for i in range(len(tensor) - 1):
            letters = [a.overline() for a in tensor[:i]] + [
                tensor[i].overline() * tensor[i + 1]] + list(tensor[i + 2:])
            partial = [((), coeff)]
            for a in letters:
                partial = [(ws + (w,), c * cw) for ws, c in partial
                           for w, cw in a.terms]
            for ws, c in partial:
                out[ws] = out.get(ws, 0) + c
    return not cyc.algebra.ring.settle(out)


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3), QQ], ids=str)
def test_bar_cycle_model_check_agrees_with_normal_forms(ring):
    # every generating cycle of H-tilde_0, H-tilde_1 and H-tilde_2 of every
    # K_J closes in the squarefree model, with letters from normal forms or
    # from the model's own commutators, and on normal forms; a cycle of bar
    # degree >= 2 opens in both once one tensor is dropped or, but over F2
    # where -1 = 1, has its sign flipped
    complexes = [PENTAGON, octahedron()] + [gnp_flag(7, g, p=0.4)
                                            for g in (1, 2, 3)]
    seen = {1: 0, 2: 0, 3: 0}
    for k in complexes:
        ctx = Context(k)
        alg, model = ctx.algebra(ring), ctx.model(ring)
        for j_set in all_subsets(k.m)[1:]:
            for n in seen:
                for kappa in ctx.homology(j_set, ring, n)[1]:
                    cyc = bar_cycle(alg, kappa)
                    assert verify_bar_cycle(cyc, model), (k, sorted(j_set))
                    assert bar_cycle_closed(kappa, model) == \
                        verify_bar_cycle(cyc, model)
                    assert normal_form_closed(cyc)
                    seen[n] += 1
                    if n == 1:
                        continue
                    (tensor, coeff), *rest = cyc.terms.items()
                    mutants = [BarElement(alg, dict(rest))]
                    if ring != GF(2):
                        mutants.append(BarElement(
                            alg, {**cyc.terms, tensor: ring.neg(coeff)}))
                    for bad in mutants:
                        assert not verify_bar_cycle(bad, model)
                        assert not normal_form_closed(bad)
    assert all(seen.values()), seen


def test_bar_products_leaving_the_model_use_normal_forms():
    alg = PCAlgebra(PENTAGON)
    model = SquarefreeModel(alg)
    u1, u2, u3 = (alg.generator(i) for i in (1, 2, 3))
    # [u1|u1]: the supports meet, so u1bar*u1 = 0 is taken on normal forms
    elem = BarElement(alg, {(u1, u1): 1})
    ((merged,), _), = bar_differential(elem, model)
    assert isinstance(merged, PCElement) and merged.is_zero()
    assert verify_bar_cycle(elem, model)
    # [u1|u3u1]: u1bar*u3u1 = u1u3u1 != 0 repeats u1, a normal word apart
    elem = BarElement(alg, {(u1, u3 * u1): 1})
    assert not verify_bar_cycle(elem, model) and not normal_form_closed(elem)
    # (u1+u2)bar*u1 = u2u1 leaves the model, but its word repeats no vertex:
    # it goes back to the model's basis and cancels d[u2|u1]
    elem = BarElement(alg, {(u1 + u2, u1): 1, (u2, u1): -1})
    assert verify_bar_cycle(elem, model) and normal_form_closed(elem)
    elem = BarElement(alg, {(u1 + u2, u1): 1, (u2, u1): 1})
    assert not verify_bar_cycle(elem, model)
