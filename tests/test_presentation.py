import gc
import random
import sys
import threading
import weakref

import pytest

from looppres.errors import NotACycle, NotFlag, PreconditionViolated
from looppres.exactlin import GF, QQ, ZZ, ExactMatrix, cokernel_invariants
from looppres.freealg import FreePolynomial, gptw_symbol, graded_commutator
from looppres.pcalg import commutator_value, evaluate
from looppres.presentation import (
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
    SimplicialCycle,
    all_subsets,
    clique_complex,
    cycle_complex,
    disjoint_points,
    path_complex,
    reduced_homology,
    rp2_minimal,
    simplex,
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
    # the threads share the complex's rewrite memo; none may mistake a call
    # in progress on another thread for a recursion cycle (two fresh
    # complexes, because the race is lost only some of the time)
    for k in (cycle_complex(7), cycle_complex(7)):
        results, errors = [None] * 4, []

        def build(t):
            try:
                results[t] = presentation_to_dict(build_presentation(k, ZZ))
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
    # the algebra and the rewrite memo live on the complex, so nothing
    # process-wide keeps a complex alive once its caller lets go of it
    k = cycle_complex(6)
    for ring in (ZZ, GF(3)):
        assert pc_algebra(k, ring) is pc_algebra(k, ring)
    assert pc_algebra(k, ZZ) is not pc_algebra(k, GF(3))
    report = verify_presentation(k, build_presentation(k, ZZ))
    assert report.ok
    ref = weakref.ref(k)
    del k, report
    gc.collect()
    assert ref() is None


def test_racing_threads_share_one_algebra():
    k = cycle_complex(5)
    barrier = threading.Barrier(8)
    got = [None] * 8

    def fetch(t):
        barrier.wait(timeout=60)
        got[t] = pc_algebra(k, GF(5))  # equal rings, distinct objects

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
