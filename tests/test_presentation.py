import copy
import gc
import random
import sys
import threading
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

import looppres.presentation as presentation
import looppres.simplicial as simplicial
import looppres.torbar as torbar
from corpus import gnp_flag, rp2_flag12
from looppres.errors import (
    FaceOutsideJ,
    NotACycle,
    NotFlag,
    PreconditionViolated,
    VertexOutOfRange,
)
from looppres.exactlin import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    ModuleInvariants,
    cokernel_invariants,
    direct_sum,
)
from looppres.freealg import (
    FreePolynomial,
    atom_u,
    gptw_symbol,
    graded_commutator,
    overline,
)
from looppres.pcalg import commutator_value, evaluate
from looppres.presentation import (
    Context,
    Relation,
    build_presentation,
    gptw_assignment,
    gptw_generators,
    is_free_loop_algebra,
    pc_algebra,
    presentation_to_dict,
    relation_for_cycle,
    render_relation,
    rewrite_chat,
    verify_presentation,
)
from looppres.simplicial import (
    FaceIndex,
    SimplicialCycle,
    all_subsets,
    boundary_matrix,
    clique_complex,
    cycle_complex,
    disjoint_points,
    octahedron,
    path_complex,
    path_components,
    reduced_betti0,
    reduced_euler_characteristic,
    reduced_homology,
    reduced_homology_invariants,
    rp2_minimal,
    simplex,
    theta_set,
)

PENTAGON = cycle_complex(5)
SQUARE = cycle_complex(4)
HEXAGON = cycle_complex(6)


def G(j_iter, i):
    return FreePolynomial.generator(gptw_symbol(frozenset(j_iter), i))


def test_gptw_generator_counts():
    gens = gptw_generators(PENTAGON)
    assert len(gens) == 10
    by_degree = {}
    for g in gens:
        by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
    assert by_degree == {2: 5, 3: 5}
    sq = gptw_generators(SQUARE)
    assert [(sorted(g.j_set), g.i) for g in sq] == [([1, 3], 1), ([2, 4], 2)]
    assert gptw_generators(simplex(4)) == []


def test_gptw_generators_are_theta_pairs():
    # the build emits one generator for every (J, i) with i in theta_set(k, J)
    for k in (PENTAGON, SQUARE, path_complex(5), gnp_flag(8, 1, p=0.4),
              gnp_flag(8, 2, p=0.4)):
        want = [(j, i) for j in all_subsets(k.m) if len(j) > 1
                for i in sorted(theta_set(k, j))]
        got = [(g.j_set, g.i) for g in gptw_generators(k)]
        assert len(got) == len(want) and set(got) == set(want)


def test_gptw_values_nonzero_and_correct():
    alg = pc_algebra(PENTAGON, ZZ)
    for g in gptw_generators(PENTAGON):
        assert g.value == commutator_value(alg, g.j_set - {g.i}, g.i)
        assert not g.value.is_zero()


def test_rewrite_rank_zero_and_rank_one():
    # i in Theta(J): the bare generator symbol
    poly = rewrite_chat(PENTAGON, {1, 3}, 1)
    assert poly == G({1, 3}, 1)
    # edge with i adjacent to max(J): zero
    assert rewrite_chat(PENTAGON, {1, 2}, 1).is_zero()
    with pytest.raises(PreconditionViolated):
        rewrite_chat(PENTAGON, {1}, 1)
    with pytest.raises(PreconditionViolated):
        rewrite_chat(PENTAGON, {1, 3}, 2)
    with pytest.raises(NotFlag):
        rewrite_chat(rp2_minimal(), {1, 2}, 1)


def test_rewrite_pentagon_golden_substitution():
    # chat(14, u_2) = -c(24, u_1), the one non-generator of the worked m=5 case
    poly = rewrite_chat(PENTAGON, {1, 2, 4}, 2)
    assert poly == -G({1, 2, 4}, 1)


def test_rewrite_soundness_small_complexes():
    complexes = [SQUARE, PENTAGON, simplex(3), disjoint_points(3),
                 path_complex(4),
                 clique_complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])]
    for k in complexes:
        alg = pc_algebra(k, ZZ)
        assignment = gptw_assignment(k, ZZ)
        for j_set in all_subsets(k.m):
            if len(j_set) < 2:
                continue
            for i in sorted(j_set):
                lhs = evaluate(rewrite_chat(k, j_set, i), alg, assignment)
                rhs = commutator_value(alg, j_set - {i}, i)
                assert lhs == rhs, (k, sorted(j_set), i)


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
@pytest.mark.parametrize("k", [cycle_complex(7), gnp_flag(7, 1, p=0.4)],
                         ids=["7-gon", "G(7,0.4) draw 1"])
def test_rewrites_and_relations_store_no_zero(k, ring):
    # brackets are summed with plain + and *; zeros are dropped once, at
    # the end of each rewrite and each edge of a relation
    pres = build_presentation(k, ring)
    assert pres.relations and pres.context.rewrites
    for poly in pres.context.rewrites.values():
        assert 0 not in poly.terms.values()
    for rel in pres.relations:
        assert all(c == ring.from_int(c) and not ring.is_zero(c)
                   for c in rel.poly.terms.values())


def test_rewrite_multidegree_homogeneous():
    for k in (PENTAGON, HEXAGON):
        for j_set in all_subsets(k.m):
            if len(j_set) < 2:
                continue
            for i in sorted(j_set):
                poly = rewrite_chat(k, j_set, i)
                if poly.is_zero():
                    continue
                assert poly.total_degree() == len(j_set)
                assert poly.multidegree() == tuple(
                    (v, 2) for v in sorted(j_set))


def pentagon_boundary_cycle():
    # [{1,5}] - sum_i [{i,i+1}], the classical orientation of the 5-gon loop
    terms = [(frozenset({1, 5}), 1)] + \
        [(frozenset({i, i + 1}), -1) for i in range(1, 5)]
    return SimplicialCycle(j=frozenset(range(1, 6)), dimension=1,
                           terms=tuple(terms))


def veryovkin_relation_polynomial():
    """The five-term m=5 relation, transcribed by hand:

    -[c(3,u1), c(45,u2)] + [c(4,u1), c(35,u2)] + [c(34,u1), c(5,u2)]
    + [c(4,u2), c(15,u3)] - [c(24,u1), c(5,u3)]
    (the last bracket is [chat(14,u2), c(5,u3)] with chat(14,u2) = -c(24,u1)).
    """
    br = graded_commutator
    return (-br(G({1, 3}, 1), G({2, 4, 5}, 2))
            + br(G({1, 4}, 1), G({2, 3, 5}, 2))
            + br(G({1, 3, 4}, 1), G({2, 5}, 2))
            + br(G({2, 4}, 2), G({1, 3, 5}, 3))
            - br(G({1, 2, 4}, 1), G({3, 5}, 3)))


def test_pentagon_relation_matches_veryovkin_exactly():
    rel = relation_for_cycle(PENTAGON, pentagon_boundary_cycle(),
                             normalize_sign=False)
    assert rel.poly == veryovkin_relation_polynomial()
    # five alive commutator summands: 3 from edge {1,2}, 2 from edge {2,3}
    assert rel.alive_terms_by_edge() == {(1, 2): 3, (2, 3): 2}
    # and it vanishes in the oracle
    alg = pc_algebra(PENTAGON, ZZ)
    assert evaluate(rel.poly, alg, gptw_assignment(PENTAGON, ZZ)).is_zero()


def test_pentagon_presentation():
    pres = build_presentation(PENTAGON, ZZ)
    assert len(pres.generators) == 10
    assert len(pres.relations) == 1
    (rel,) = pres.relations
    assert rel.degree == 5
    target = veryovkin_relation_polynomial()
    assert rel.poly == target or rel.poly == -target


def test_square_presentation():
    pres = build_presentation(SQUARE, ZZ)
    assert len(pres.generators) == 2
    assert len(pres.relations) == 1
    (rel,) = pres.relations
    expected = graded_commutator(G({1, 3}, 1), G({2, 4}, 2))
    assert rel.poly == expected or rel.poly == -expected
    assert rel.alive_terms_by_edge() == {(1, 2): 1}


def test_simplex_presentation_trivial():
    for m in (2, 3, 4):
        pres = build_presentation(simplex(m), ZZ)
        assert pres.generators == [] and pres.relations == []


def test_hexagon_relation_term_counts():
    pres = build_presentation(HEXAGON, ZZ)
    assert len(pres.relations) == 1
    (rel,) = pres.relations
    by_edge = rel.alive_terms_by_edge()
    assert by_edge == {(1, 2): 7, (2, 3): 10, (3, 4): 4}
    assert sum(by_edge.values()) == 21
    alg = pc_algebra(HEXAGON, ZZ)
    assert evaluate(rel.poly, alg, gptw_assignment(HEXAGON, ZZ)).is_zero()


def test_relation_rejects_bad_chains():
    not_cycle = SimplicialCycle(j=frozenset({1, 2, 3}), dimension=1,
                                terms=((frozenset({1, 2}), 1),))
    with pytest.raises(NotACycle):
        relation_for_cycle(PENTAGON, not_cycle)


def test_relation_refuses_cycle_outside_j():
    # the hexagon's generating cycle handed J = {1..5}: two edges meet 6
    _, (kappa,) = reduced_homology(HEXAGON, range(1, 7), ZZ, degree=2)
    outside = SimplicialCycle(j=frozenset(range(1, 6)), dimension=1,
                              terms=kappa.terms)
    with pytest.raises(FaceOutsideJ):
        relation_for_cycle(HEXAGON, outside)


@pytest.mark.parametrize("k", [PENTAGON, HEXAGON, gnp_flag(7, 1),
                               gnp_flag(7, 2), gnp_flag(7, 3)],
                         ids=["pentagon", "hexagon", "G(7,0.5) seed 1",
                              "G(7,0.5) seed 2", "G(7,0.5) seed 3"])
def test_relation_synthesis_is_ring_independent(k):
    # over Q, F2 and F3 the relation of an integer cycle is the Z relation
    # with its polynomial and term coefficients carried into the ring
    checked = 0
    for j_set in all_subsets(k.m):
        if len(j_set) < 3:
            continue
        for kappa in reduced_homology(k, j_set, ZZ, degree=2)[1]:
            want = relation_for_cycle(k, kappa, ZZ, normalize_sign=False)
            for ring in (QQ, GF(2), GF(3)):
                got = relation_for_cycle(k, kappa, ring, normalize_sign=False)
                assert got == replace(
                    want, poly=want.poly.convert_ring(ring),
                    terms=tuple(replace(t, coeff=ring.from_int(t.coeff))
                                for t in want.terms)), (sorted(j_set), ring)
            checked += 1
    assert checked


def test_sign_normalization():
    kappa = pentagon_boundary_cycle()
    plus = relation_for_cycle(PENTAGON, kappa)
    minus_terms = tuple((f, -c) for f, c in kappa.terms)
    flipped = relation_for_cycle(
        PENTAGON, SimplicialCycle(j=kappa.j, dimension=1, terms=minus_terms))
    assert plus.poly == flipped.poly  # normalization kills the cycle sign
    lead = plus.poly.leading_word()
    assert plus.poly.terms[lead] > 0


def test_presentation_other_rings():
    for ring in (QQ, GF(2), GF(3)):
        pres = build_presentation(PENTAGON, ring)
        assert len(pres.generators) == 10 and len(pres.relations) == 1
        report = verify_presentation(PENTAGON, pres)
        assert report.ok, report.summary()
        if ring.kind == "Fp":
            lead = pres.relations[0].poly.leading_word()
            assert pres.relations[0].poly.terms[lead] == 1


def test_zgraded_equals_multigraded_without_torsion():
    for k in (PENTAGON, SQUARE, HEXAGON):
        multi = build_presentation(k, ZZ, grading="multi")
        z = build_presentation(k, ZZ, grading="z")
        assert len(multi.relations) == len(z.relations)
        assert multi.counts_certificate.rel_count_by_degree == \
            z.counts_certificate.rel_count_by_degree


def test_zgraded_two_disjoint_squares():
    # two 4-cycles on disjoint vertex sets: two independent degree-4 classes
    edges = [(1, 2), (2, 3), (3, 4), (1, 4),
             (5, 6), (6, 7), (7, 8), (5, 8)]
    k = clique_complex(8, edges)
    z = build_presentation(k, ZZ, grading="z")
    assert z.counts_certificate.rel_count_by_degree[4] == 2
    rels4 = [r for r in z.relations if r.degree == 4]
    assert len(rels4) == 2  # free summands never merge
    report = verify_presentation(k, z)
    assert report.ok, report.summary()


def test_zgraded_merge_mechanism_on_block_matrix():
    # the Z/2 + Z/3 -> Z/6 mechanism, exercised on the merge primitive
    diag = ExactMatrix.from_rows([[2, 0], [0, 3]])
    merged = cokernel_invariants(diag)
    assert merged.gen_count() == 1
    (vec,) = merged.generators
    assert vec[0] % 2 == 1 and vec[1] % 3 != 0  # hits both cyclic pieces
    # orders 6, 10, 15 need two generators even though they are pairwise
    # non-coprime (greedy coprime pairing would wrongly produce three)
    diag = ExactMatrix.from_rows([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert cokernel_invariants(diag).gen_count() == 2
    # verify counts them without the merge: ranks plus non-unit factors
    assert direct_sum([ModuleInvariants(rank=0, torsion=[6]),
                       ModuleInvariants(rank=1, torsion=[10]),
                       ModuleInvariants(rank=0, torsion=[15])]) == \
        ModuleInvariants(rank=1, torsion=[30, 30])


def test_merge_relations_sums_across_subsets():
    # exercise the combination machinery directly with a non-basis vector:
    # the merged relation of two cycles is the sum of their relations
    from looppres.presentation import _merge_relations
    edges = [(1, 2), (2, 3), (3, 4), (1, 4),
             (5, 6), (6, 7), (7, 8), (5, 8)]
    k = clique_complex(8, edges)
    j1, j2 = frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8})
    _, (c1,) = reduced_homology(k, j1, ZZ, degree=2)
    _, (c2,) = reduced_homology(k, j2, ZZ, degree=2)
    entries = [(j1, c1, 0), (j2, c2, 0)]
    merged = _merge_relations(k, ZZ, entries, [1, 1])
    r1 = relation_for_cycle(k, c1, ZZ, normalize_sign=False)
    r2 = relation_for_cycle(k, c2, ZZ, normalize_sign=False)
    total = r1.poly + r2.poly
    assert merged.poly == total or merged.poly == -total
    assert len(merged.parts) == 2
    alg = pc_algebra(k, ZZ)
    assert evaluate(merged.poly, alg, gptw_assignment(k, ZZ)).is_zero()


def test_verify_presentation_passes():
    for k in (PENTAGON, SQUARE, HEXAGON):
        pres = build_presentation(k, ZZ)
        report = verify_presentation(k, pres)
        assert report.ok, report.summary()


def test_verify_runs_six_checks_in_cli_order():
    # the CLI prints report.checks as they stand, so the library report
    # carries the Tor strand and the bar cycles too
    pres = build_presentation(PENTAGON, ZZ)
    report = verify_presentation(PENTAGON, pres)
    assert [name for name, _, _ in report.checks] == [
        "generator values", "rewriting soundness", "relations vanish",
        "counts vs certificate", "Tor strand cross-check",
        "bar cycles closed"]
    assert report.ok, report.summary()
    assert check_rows(report)["Tor strand cross-check"] == (
        True, "31/31 subsets agree")


def test_verify_catches_corruption():
    pres = build_presentation(SQUARE, ZZ)
    bad_rel = Relation(degree=4, poly=G({1, 3}, 1) * G({2, 4}, 2),
                       parts=pres.relations[0].parts,
                       terms=pres.relations[0].terms)
    pres.relations[0] = bad_rel
    report = verify_presentation(SQUARE, pres)
    assert not report.ok
    assert any(name == "relations vanish" and not ok
               for name, ok, _ in report.checks)


def test_verify_reports_a_relation_it_cannot_evaluate():
    # a symbol with no generator (Theta({1,2,3}) is empty on the pentagon)
    # or a relation over another ring is a failed row, not an exception
    pres = build_presentation(PENTAGON, ZZ)
    rel = pres.relations[0]
    for poly in (rel.poly + G({1, 2, 3}, 3), rel.poly.convert_ring(GF(3))):
        pres.relations[0] = replace(rel, poly=poly)
        rows = check_rows(verify_presentation(PENTAGON, pres))
        assert rows["relations vanish"] == (False, "0/1 vanish in k[K]!")
        assert [name for name, (ok, _) in rows.items() if not ok] == [
            "relations vanish"]


def test_verify_counts_generators_by_elimination(monkeypatch):
    # a component search that merges two components of some K_J loses a
    # generator; the certificate's b0 is read off the generators it chose,
    # so only the rank of H-tilde_0(K_J) by elimination can tell
    k = gnp_flag(6, 1)
    real = FaceIndex.components

    def merging(self, j):
        comps = real(self, j)
        return [comps[0] | comps[1]] + comps[2:] if len(comps) > 2 else comps
    with monkeypatch.context() as patch:
        patch.setattr(FaceIndex, "components", merging)
        pres = build_presentation(k, ZZ)
    honest = build_presentation(k, ZZ)
    assert len(pres.generators) == len(honest.generators) - 1
    checks = {name: ok for name, ok, _ in verify_presentation(k, pres).checks}
    assert not checks["counts vs certificate"]
    assert all(ok for name, ok in checks.items()
               if name != "counts vs certificate")


def test_verify_counts_relations_by_homology():
    # the certificate's relation counts are filled in the loop that builds
    # the relations, so a presentation edited to match them must still fail
    # against H_1(K_J) from verify's own sweep
    pres = build_presentation(PENTAGON, ZZ)
    pres.relations.clear()
    pres.counts_certificate.rel_count_by_degree.clear()
    checks = {name: ok for name, ok, _ in
              verify_presentation(PENTAGON, pres).checks}
    assert [name for name, ok in checks.items() if not ok] == [
        "counts vs certificate"]
    k = clique_complex(8, [(1, 2), (2, 3), (3, 4), (1, 4),
                           (5, 6), (6, 7), (7, 8), (5, 8)])
    z = build_presentation(k, ZZ, grading="z")
    z.relations.remove(next(r for r in z.relations if r.degree == 4))
    z.counts_certificate.rel_count_by_degree[4] -= 1
    checks = {name: ok for name, ok, _ in verify_presentation(k, z).checks}
    assert [name for name, ok in checks.items() if not ok] == [
        "counts vs certificate"]


def test_verify_checks_generator_values_in_the_model(monkeypatch):
    # a wrong value that the build reads from commutator_value: check (1)
    # compares with the model's commutator, and checks (2) and (3) bind the
    # symbols to the model's commutators, so they do not read it
    real = presentation.commutator_value

    def negating(algebra, prefix, i):
        value = real(algebra, prefix, i)
        return -value if (frozenset(prefix), i) == (frozenset({3}), 1) \
            else value
    with monkeypatch.context() as patch:
        patch.setattr(presentation, "commutator_value", negating)
        pres = build_presentation(PENTAGON, ZZ)
        rows = check_rows(verify_presentation(PENTAGON, pres))
    assert rows["generator values"] == (False, "9/10 match")
    assert [name for name, (ok, _) in rows.items() if not ok] == [
        "generator values"]
    # values the model refuses are mismatches, reported and not raised
    pres = build_presentation(PENTAGON, ZZ)
    alg = pc_algebra(pres.context, ZZ)
    pres.generators[0] = replace(pres.generators[0],
                                 value=alg.element({(1, 3, 1): 1}))
    pres.generators[1] = replace(
        pres.generators[1], value=pc_algebra(HEXAGON, ZZ).generator(1))
    rows = check_rows(verify_presentation(PENTAGON, pres))
    assert rows["generator values"] == (False, "8/10 match")


def _first_edge_of_shortest_path(k, j_set, source, target):
    """Other endpoint of the first edge on the BFS-first shortest path: BFS
    from the source explores neighbors in increasing vertex order, and the
    first discovered shortest path to the target is read off via parents."""
    parent = {source: None}
    queue = [source]
    while queue:
        v = queue.pop(0)
        if v == target:
            break
        for w in sorted(k.adjacency[v]):
            if w in j_set and w not in parent:
                parent[w] = v
                queue.append(w)
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path[-2]


def test_rewrite_steps_along_the_bfs_first_shortest_path(monkeypatch):
    # the engine steps to the least neighbor one closer to the target, the
    # edge that the BFS-first shortest path leaves i by
    steps = []
    monkeypatch.setattr(presentation, "_solve_rearrangement",
                        lambda ctx, j_set, i, neighbor: steps.append(neighbor))
    rng = random.Random(12)
    rp2_sample = [frozenset(rng.sample(range(1, 13), rng.randint(2, 12)))
                  for _ in range(300)]
    cases = [(cycle_complex(m), None) for m in (5, 6, 7)] + [
        (octahedron(), None)] + [
        (gnp_flag(8, seed, p=0.4), None) for seed in (1, 2, 3)] + [
        (rp2_flag12(), rp2_sample)]
    compared = 0
    for k, subsets in cases:
        ctx = Context(k)
        for j_set in subsets or all_subsets(k.m):
            if len(j_set) < 2:
                continue
            top = max(j_set)
            comps = path_components(k, j_set)
            for i in sorted(j_set - {top}):
                comp = next(c for c in comps if i in c)
                target = top if top in comp else comp[0]
                steps.clear()
                presentation._rewrite_uncached(ctx, j_set, i)
                if i == target or (target == top and top in k.adjacency[i]):
                    assert steps == [], (k, sorted(j_set), i)
                    continue
                compared += 1
                assert steps == [_first_edge_of_shortest_path(
                    k, j_set, i, target)], (k, sorted(j_set), i)
    assert compared > 2000


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=repr)
@pytest.mark.parametrize("name", ["octahedron", "gnp-7-0.4-1"])
def test_build_and_verify_read_only_the_face_index(monkeypatch, name, ring):
    # the dense boundary_matrix and faces_within are the tests' reference,
    # not a path of the build or of verify
    def refused(*args, **kwargs):
        raise AssertionError("dense K_J path used")
    monkeypatch.setattr(simplicial, "boundary_matrix", refused)
    monkeypatch.setattr(simplicial, "faces_within", refused)
    k = octahedron() if name == "octahedron" else gnp_flag(7, 1, p=0.4)
    pres = build_presentation(k, ring)
    assert pres.relations
    report = verify_presentation(k, pres)
    assert report.ok, report.summary()


def test_is_free_loop_algebra():
    assert is_free_loop_algebra(path_complex(5), ZZ)  # trees are free
    assert not is_free_loop_algebra(SQUARE, ZZ)
    assert is_free_loop_algebra(simplex(4), ZZ)
    assert is_free_loop_algebra(disjoint_points(4), ZZ)


def test_relations_multidegree_homogeneous():
    # every multigraded relation polynomial is homogeneous at (-|J|, 2J)
    for k in (SQUARE, PENTAGON, HEXAGON):
        pres = build_presentation(k, ZZ)
        for rel in pres.relations:
            assert rel.poly.total_degree() == rel.degree
            assert rel.poly.multidegree() == tuple(
                (v, 2) for v in sorted(rel.j_set))


def test_rendering_and_serialization():
    pres = build_presentation(PENTAGON, ZZ)
    (rel,) = pres.relations
    text = render_relation(PENTAGON, rel)
    assert text.endswith("= 0")
    assert "[u4,[u5,u2]]" in text or "[u2,[u4,u1]]" in text
    data = presentation_to_dict(pres)
    assert data["m"] == 5 and len(data["generators"]) == 10
    assert data["certificate"]["generators_by_degree"] == {"2": 5, "3": 5}
    assert data["certificate"]["relations_by_degree"] == {"5": 1}
    import json
    assert json.loads(json.dumps(data)) == data


def test_random_flag_presentations_verify():
    rng = random.Random(99)
    for _ in range(8):
        m = rng.randint(3, 6)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.45]
        k = clique_complex(m, edges)
        pres = build_presentation(k, ZZ)
        report = verify_presentation(k, pres)
        assert report.ok, (sorted(map(sorted, k.facets)), report.summary())


def test_concurrent_builds_of_one_complex():
    # the threads share one context's rewrite memo; none may mistake a call
    # in progress on another thread for a recursion cycle (two fresh
    # contexts, because the race is lost only some of the time)
    for ctx in (Context(cycle_complex(7)), Context(cycle_complex(7))):
        results, errors = [None] * 4, []

        def build(t):
            try:
                results[t] = presentation_to_dict(build_presentation(ctx, ZZ))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(t,))
                   for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        assert results[0] is not None
        assert all(r == results[0] for r in results)


def test_dropped_complex_is_collected():
    # the algebras and the rewrite memo live in the context, and nothing
    # points back at the algebra or a complex that holds it, so reference
    # counting alone frees the complex, its context and the presentation
    # built in that context once the caller lets go of them, and a dropped
    # full subcomplex too: the cycle collector stays off throughout
    gc.disable()
    try:
        k = cycle_complex(6)
        ctx = Context(k)
        for ring in (ZZ, GF(3)):
            assert pc_algebra(ctx, ring) is pc_algebra(ctx, ring)
        assert pc_algebra(ctx, ZZ) is not pc_algebra(ctx, GF(3))
        pres = build_presentation(ctx, ZZ)
        assert pres.context is ctx
        report = verify_presentation(k, pres)
        assert report.ok
        sub = simplicial.full_subcomplex(k, {1, 2, 4})
        assert sub.facets_original_labels() == [[4], [1, 2]]
        refs = [weakref.ref(obj) for obj in
                (k, ctx, pres, pc_algebra(ctx, GF(3)), sub)]
        del k, ctx, pres, report, sub
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_racing_threads_share_one_algebra():
    ctx = Context(cycle_complex(5))
    barrier = threading.Barrier(8)
    got = [None] * 8

    def fetch(t):
        barrier.wait(timeout=60)
        got[t] = ctx.algebra(GF(5))  # equal rings, distinct objects

    threads = [threading.Thread(target=fetch, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got[0] is not None and all(a is got[0] for a in got)


@pytest.mark.parametrize("j_set", [{1, 3, 9}, {0, 1, 3}])
def test_subset_outside_vertex_range_is_refused(j_set):
    # J must lie in [m]; before, the first four raised a bare KeyError, the
    # homology calls silently answered for J minus the stray vertex, and
    # full_subcomplex named a relabelled vertex as a ghost
    calls = [
        lambda: simplicial.full_subcomplex(PENTAGON, j_set),
        lambda: rewrite_chat(PENTAGON, j_set, 1),
        lambda: theta_set(PENTAGON, j_set),
        lambda: reduced_betti0(PENTAGON, j_set),
        lambda: path_components(PENTAGON, j_set),
        lambda: reduced_homology(PENTAGON, j_set, ZZ, degree=1),
        lambda: reduced_homology_invariants(PENTAGON, j_set, ZZ, degree=1),
        lambda: boundary_matrix(PENTAGON, j_set, 2),
        lambda: PENTAGON.index.distances(j_set, 1),
        lambda: reduced_euler_characteristic(PENTAGON, j_set),
    ]
    for call in calls:
        with pytest.raises(VertexOutOfRange):
            call()


@pytest.mark.parametrize("ring", [ZZ, GF(2), QQ], ids=repr)
@pytest.mark.parametrize("name", ["pentagon", "hexagon", "gnp-7-0.4-1"])
def test_context_and_complex_give_the_same_presentation(name, ring):
    k = {"pentagon": PENTAGON, "hexagon": HEXAGON,
         "gnp-7-0.4-1": gnp_flag(7, 1, p=0.4)}[name]
    bare = build_presentation(k, ring)
    ctx = Context(k)
    shared = build_presentation(ctx, ring)
    assert shared.context is ctx and bare.context is not ctx
    assert presentation_to_dict(shared) == presentation_to_dict(bare)
    for rel in bare.relations:
        assert render_relation(ctx, rel) == render_relation(k, rel)
    bare_report = verify_presentation(k, bare)
    assert bare_report.ok, bare_report.summary()
    assert verify_presentation(ctx, shared).checks == bare_report.checks


def test_complex_holds_no_memo_state():
    # the face index is built with the complex and never changes after
    k = cycle_complex(6)
    fields = set(vars(k))
    assert fields == {"m", "facets", "_faces", "_faces_by_size", "adjacency",
                      "index"}
    index = k.index
    built = copy.deepcopy((index.masks, index.boundary, index.neighbors))
    for ring in (ZZ, GF(3)):
        pres = build_presentation(k, ring)
        for rel in pres.relations:
            render_relation(k, rel)
        presentation_to_dict(pres)
        assert verify_presentation(k, pres).ok
        rewrite_chat(k, frozenset({1, 3, 5}), 3)
        pc_algebra(k, ring)
    assert set(vars(k)) == fields
    assert k.index is index
    assert (index.masks, index.boundary, index.neighbors) == built


def test_rendered_rewrites_are_looked_up_without_hashing_the_ring(
        monkeypatch):
    # the rendered-rewrite memo is read twice per alive bracket; its key
    # must not go through the Python-level CoefficientRing.__hash__
    from looppres.exactlin import CoefficientRing
    ctx = Context(HEXAGON)
    pres = build_presentation(ctx, GF(3))
    texts = [render_relation(ctx, rel) for rel in pres.relations]
    calls = []
    real = CoefficientRing.__hash__

    def counted(ring):
        calls.append(ring)
        return real(ring)
    monkeypatch.setattr(CoefficientRing, "__hash__", counted)
    assert [render_relation(ctx, rel) for rel in pres.relations] == texts
    assert texts and calls == []


def check_rows(report):
    return {name: (ok, detail) for name, ok, detail in report.checks}


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=repr)
def test_relation_missing_a_word_does_not_vanish(ring):
    k = gnp_flag(7, 1, p=0.4)
    pres = build_presentation(k, ring)
    rel = max(pres.relations, key=lambda r: len(r.poly.terms))
    word = rel.poly.leading_word()
    dropped = FreePolynomial(ring, {w: c for w, c in rel.poly.terms.items()
                                    if w != word})
    pres.relations[pres.relations.index(rel)] = replace(rel, poly=dropped)
    rows = check_rows(verify_presentation(k, pres))
    n = len(pres.relations)
    assert rows["relations vanish"] == (False,
                                        "%d/%d vanish in k[K]!" % (n - 1, n))
    assert all(ok for name, (ok, _) in rows.items()
               if name != "relations vanish")


def test_doubled_rewrite_coefficient_fails_soundness():
    ctx = Context(HEXAGON)
    pres = build_presentation(ctx, ZZ)
    key = (frozenset({1, 2, 3, 5}), 2)
    poly = rewrite_chat(ctx, *key)
    assert len(poly.terms) > 1
    word = poly.leading_word()
    ctx.rewrites[key] = FreePolynomial(
        ZZ, {**poly.terms, word: 2 * poly.terms[word]})
    rows = check_rows(verify_presentation(ctx, pres))
    assert rows["rewriting soundness"] == (False, "185/186 pairs (J,i) agree")
    assert rows["relations vanish"][0] and rows["generator values"][0]


@pytest.mark.parametrize("k, detail", [(SQUARE, "2/3"), (PENTAGON, "10/11"),
                                       (HEXAGON, "34/35")],
                         ids=["square", "pentagon", "hexagon"])
def test_bar_cycles_without_the_koszul_sign_fail_verify(monkeypatch, k,
                                                        detail):
    # theta(J_t1, J_t2) = 0 drops the Koszul sign of the bar-cycle formula:
    # the one cycle of bar degree 2 opens, those of H-tilde_0 stay closed,
    # and both bar-cycle checks agree on every generating cycle
    monkeypatch.setattr(torbar, "koszul_theta", lambda a, b: 0)
    ctx = Context(k)
    rows = check_rows(verify_presentation(ctx, build_presentation(ctx, ZZ)))
    assert rows["bar cycles closed"] == (False, detail + " generating cycles")
    assert all(ok for name, (ok, _) in rows.items()
               if name != "bar cycles closed")
    alg, model = ctx.algebra(ZZ), ctx.model(ZZ)
    for j_set in all_subsets(k.m)[1:]:
        for n in (1, 2, 3):
            for kappa in ctx.homology(j_set, ZZ, n)[1]:
                assert torbar.bar_cycle_closed(kappa, model) == \
                    torbar.verify_bar_cycle(torbar.bar_cycle(alg, kappa),
                                            model) == (n == 1)


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3), QQ], ids=repr)
def test_relation_is_the_bar_differential_of_its_bar_cycle(ring):
    # the paper's route from Tor_2 to relations: the relation of a generating
    # 1-cycle is d of its bar cycle, the sum of c * overline(x) * y over the
    # terms c [x|y], each letter c(B, u_i) rewritten in the generators
    cycles = 0
    for k in (PENTAGON, HEXAGON, octahedron(),
              *(gnp_flag(7, seed) for seed in (1, 2, 3))):
        ctx = Context(k)

        def letter(b_set, i):
            return rewrite_chat(ctx, b_set | {i}, i).convert_ring(ring)

        for j_set in all_subsets(k.m):
            for kappa in ctx.homology(j_set, ring, 2)[1]:
                d = FreePolynomial.zero(ring)
                for (x, y), c in torbar._bar_terms(ctx.algebra(ring), kappa,
                                                   letter):
                    d = d + (overline(x) * y).scale(c)
                assert d == relation_for_cycle(ctx, kappa, ring,
                                               normalize_sign=False).poly
                cycles += 1
    assert cycles == 37


@pytest.mark.parametrize("k", [PENTAGON, HEXAGON], ids=["pentagon", "hexagon"])
def test_halved_cycle_over_q_gives_half_the_relation(k):
    # over Q a generating cycle may carry denominators: half the cycle gives
    # half the relation, its bar cycle is closed, and the presentation with
    # the halved relation in place passes all six checks
    ctx = Context(k)
    pres = build_presentation(ctx, QQ)
    (rel,) = pres.relations
    ((_, kappa),) = rel.parts
    half = SimplicialCycle(j=kappa.j, dimension=1, terms=tuple(
        (face, Fraction(c) / 2) for face, c in kappa.terms))
    halved = relation_for_cycle(ctx, half, QQ)
    assert halved.poly == rel.poly.scale(Fraction(1, 2))
    assert {c.denominator for c in halved.poly.terms.values()} == {2}
    assert torbar.bar_cycle_closed(half, ctx.model(QQ))
    pres.relations[0] = halved
    rows = check_rows(verify_presentation(ctx, pres))
    assert len(rows) == 6 and all(ok for ok, _ in rows.values()), rows


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=repr)
def test_words_outside_squarefree_degrees_are_checked_apart(ring):
    # u1*u1 is zero in k[K]^!, so the relation still vanishes; u1*u3*u1
    # ({1,3} is no edge of the pentagon) is not zero, so it must not
    pres = build_presentation(PENTAGON, ring)
    (rel,) = pres.relations
    u1, u3 = (FreePolynomial.generator(atom_u(v), ring) for v in (1, 3))
    pres.relations[0] = replace(rel, poly=rel.poly + (u1 * u1).scale(5))
    assert verify_presentation(PENTAGON, pres).ok
    pres.relations[0] = replace(rel, poly=rel.poly + u1 * u3 * u1)
    assert check_rows(verify_presentation(PENTAGON, pres))[
        "relations vanish"] == (False, "0/1 vanish in k[K]!")
