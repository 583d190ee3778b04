"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import random
import time
from itertools import combinations
from math import comb

from corpus import full_corpus, named_complexes, random_flag_complexes

from looppres.exactlin import GF, QQ, ZZ, ExactMatrix, cokernel_invariants, \
    module_gen_rel, rank
from looppres.freealg import (
    FreePolynomial,
    atom_u,
    expand_c_of_bracket,
    expand_uI_uj,
    expand_uI_x,
    gptw_symbol,
    graded_commutator,
    nested_commutator,
    rearrangement_identity_lhs,
    rearrangement_identity_rhs,
    u_word,
)
from looppres.homotopy import (
    euler_identity_check,
    expand_sphere_product,
    loop_poincare_series,
    multiplicity_report,
    one_plus_t_power,
    poly_mul,
    sphere_multiplicities,
)
from looppres.pcalg import PCAlgebra, commutator_value, evaluate, \
    graded_dimensions
from looppres.presentation import (
    build_presentation,
    gptw_assignment,
    pc_algebra,
    relation_for_cycle,
    rewrite_chat,
    verify_presentation,
)
from looppres.simplicial import (
    SimplicialCycle,
    all_subsets,
    cycle_complex,
    disjoint_points,
    reduced_homology,
    reduced_homology_invariants,
    simplex,
)
from looppres.torbar import bar_cycle, koszul_homology, verify_bar_cycle

from test_exactlin import brute_force_gen_count, check_snf_contract, \
    random_unimodular
from test_presentation import pentagon_boundary_cycle, \
    veryovkin_relation_polynomial


def verdict(number, name, ok, detail):
    print("ACCEPTANCE %2d %-28s %s  (%s)"
          % (number, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (number, detail)


def test_criterion_01_pentagon_golden():
    start = time.perf_counter()
    pentagon = cycle_complex(5)
    sub = rewrite_chat(pentagon, frozenset({1, 2, 4}), 2)
    assert sub == -FreePolynomial.generator(gptw_symbol({1, 2, 4}, 1))
    rel = relation_for_cycle(pentagon, pentagon_boundary_cycle(),
                             normalize_sign=False)
    target = veryovkin_relation_polynomial()
    exact = rel.poly == target
    pres = build_presentation(pentagon, ZZ)
    (built,) = pres.relations
    up_to_sign = built.poly == target or built.poly == -target
    elapsed = time.perf_counter() - start
    verdict(1, "pentagon golden relation",
            exact and up_to_sign and elapsed < 1.0,
            "exact match, built=+-target, %.3fs" % elapsed)


def test_criterion_02_hexagon_golden():
    start = time.perf_counter()
    hexagon = cycle_complex(6)
    pres = build_presentation(hexagon, ZZ)
    (rel,) = pres.relations
    by_edge = rel.alive_terms_by_edge()
    counts_ok = by_edge == {(1, 2): 7, (2, 3): 10, (3, 4): 4}
    value = evaluate(rel.poly, pc_algebra(hexagon, ZZ),
                     gptw_assignment(hexagon, ZZ))
    elapsed = time.perf_counter() - start
    verdict(2, "hexagon 21-term relation",
            counts_ok and value.is_zero() and elapsed < 5.0,
            "7+10+4 terms, vanishes, %.3fs" % elapsed)


def test_criterion_03_oracle_soundness_sweep():
    corpus = full_corpus()
    pair_total = pair_ok = rel_total = rel_ok = 0
    for name, k in corpus:
        algebra = pc_algebra(k, ZZ)
        assignment = gptw_assignment(k, ZZ)
        for j_set in all_subsets(k.m):
            if len(j_set) < 2:
                continue
            for i in sorted(j_set):
                pair_total += 1
                got = evaluate(rewrite_chat(k, j_set, i), algebra, assignment)
                if got == commutator_value(algebra, j_set - {i}, i):
                    pair_ok += 1
        pres = build_presentation(k, ZZ)
        for rel in pres.relations:
            rel_total += 1
            if evaluate(rel.poly, algebra, assignment).is_zero():
                rel_ok += 1
    verdict(3, "oracle soundness sweep",
            pair_ok == pair_total and rel_ok == rel_total,
            "%d complexes, %d/%d rewrites, %d/%d relations"
            % (len(corpus), pair_ok, pair_total, rel_ok, rel_total))


def test_criterion_04_tor_cross_check():
    rings = [ZZ, QQ, GF(2), GF(3)]
    checked = failures = 0
    corpus = [(n, k) for n, k in full_corpus() if k.m <= 6]
    for name, k in corpus:
        for j_set in all_subsets(k.m):
            for ring in rings:
                for n in range(0, len(j_set) + 2):
                    a = koszul_homology(k, j_set, ring, degree=n)
                    b, _ = reduced_homology(k, j_set, ring, degree=n)
                    checked += 1
                    if a.rank != b.rank or a.torsion != b.torsion:
                        failures += 1
    verdict(4, "Tor strand cross-check", failures == 0,
            "%d complexes (m<=6), %d strand comparisons, rings Z,Q,F2,F3"
            % (len(corpus), checked))


def test_criterion_05_bar_cycle_closedness():
    corpus = [(n, k) for n, k in full_corpus() if k.m <= 6]
    total = closed = 0
    for name, k in corpus:
        algebra = pc_algebra(k, ZZ)
        for j_set in all_subsets(k.m):
            for n in (1, 2, 3):
                _, cycles = reduced_homology(k, j_set, ZZ, degree=n)
                for kappa in cycles:
                    total += 1
                    if verify_bar_cycle(bar_cycle(algebra, kappa)):
                        closed += 1
    verdict(5, "bar cycle closedness", total > 0 and closed == total,
            "%d/%d generating cycles, bar degrees 1..3" % (closed, total))


def test_criterion_06_count_minimality():
    ok = True
    details = []
    for name, k in full_corpus():
        pres = build_presentation(k, ZZ)
        by_degree = {}
        for g in pres.generators:
            by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
        expected_gens = {}
        expected_rels = {}
        for j_set in all_subsets(k.m):
            if len(j_set) < 2:
                continue
            b0 = reduced_homology_invariants(k, j_set, ZZ, 1).gen_count()
            if b0:
                n = len(j_set)
                expected_gens[n] = expected_gens.get(n, 0) + b0
            if len(j_set) < 3:
                continue
            inv, _ = reduced_homology(k, j_set, ZZ, degree=2)
            if inv.gen_count():
                n = len(j_set)
                expected_rels[n] = expected_rels.get(n, 0) + inv.gen_count()
        rels = {}
        for r in pres.relations:
            rels[r.degree] = rels.get(r.degree, 0) + 1
        if by_degree != expected_gens or rels != expected_rels:
            ok = False
    pentagon = build_presentation(cycle_complex(5), ZZ)
    square = build_presentation(cycle_complex(4), ZZ)
    named_ok = (len(pentagon.generators), len(pentagon.relations)) == (10, 1) \
        and (len(square.generators), len(square.relations)) == (2, 1)
    for m in (2, 3, 4):
        pres = build_presentation(simplex(m), ZZ)
        named_ok = named_ok and not pres.generators and not pres.relations
    verdict(6, "count minimality", ok and named_ok,
            "per-degree counts match sum b0 / sum gen H_1; "
            "pentagon (10,1), square (2,1), simplex (0,0)")


def test_criterion_07_hilbert_consistency():
    degree = 8
    checked = 0
    ok = True
    corpus = full_corpus()
    for name, k in corpus:
        series = loop_poincare_series(k, degree)
        pc_series = poly_mul(series, one_plus_t_power(k.m), degree)
        pc_series += [0] * (degree + 1 - len(pc_series))
        dims = graded_dimensions(PCAlgebra(k, ZZ), degree)
        if dims != pc_series:
            ok = False
        checked += 1
    verdict(7, "Hilbert series consistency", ok and checked == len(corpus),
            "%d complexes, enumerated dims == (1+t)^d/h(-t) and "
            "dims/(1+t)^m == 1/P, degrees 0..8" % checked)


def test_criterion_08_euler_identity_and_decomposition():
    ok = True
    for name, k in full_corpus():
        lhs, rhs, equal = euler_identity_check(k)
        if not equal:
            ok = False
        report = multiplicity_report(k, 16)
        if any(d < 0 for d in report.multiplicities.values()):
            ok = False
    square = sphere_multiplicities([1, 0, -2, 0, 1], 16)
    two_points = sphere_multiplicities([1, 0, -1], 16)
    pent = sphere_multiplicities([1, 0, -5, -5, 0, 1], 16)
    named_ok = square[3] == 2 and two_points[3] == 1 \
        and pent[3] == 5 and pent[4] == 5
    reexp = expand_sphere_product(pent, 16) == \
        [1, 0, -5, -5, 0, 1] + [0] * 11
    verdict(8, "Euler identity + spheres", ok and named_ok and reexp,
            "identity exact on corpus; D_n >= 0; square D3=2, "
            "two points D3=1, pentagon D3=D4=5, re-expansion mod t^17")


def test_criterion_09_commutator_identity_suite():
    rng = random.Random(424242)
    count = 0

    def random_subset():
        return frozenset(i for i in range(1, 7) if rng.random() < 0.5)

    def random_word():
        length = rng.randint(1, 3)
        return FreePolynomial.monomial(
            tuple(atom_u(rng.randint(1, 6)) for _ in range(length)),
            rng.choice([1, -1, 2]))

    for _ in range(400):
        i_set, x = random_subset(), random_word()
        assert u_word(i_set) * x == expand_uI_x(i_set, x)
        count += 1
    for _ in range(300):
        i_set, j = random_subset(), rng.randint(1, 6)
        assert u_word(i_set) * FreePolynomial.generator(atom_u(j)) == \
            expand_uI_uj(i_set, j)
        count += 1
    for _ in range(200):
        i_set, x, y = random_subset(), random_word(), random_word()
        assert nested_commutator(i_set, graded_commutator(x, y)) == \
            expand_c_of_bracket(i_set, x, y)
        count += 1
    for size in range(3, 7):
        for j_tuple in combinations(range(1, 7), size):
            j_set = frozenset(j_tuple)
            top = max(j_set)
            for i, j in combinations(sorted(j_set), 2):
                if j >= top:
                    continue
                assert rearrangement_identity_lhs(j_set, i, j) == \
                    rearrangement_identity_rhs(j_set, i, j)
                count += 1
    verdict(9, "commutator identity suite", count >= 1000,
            "%d exact free-algebra identities (regroup, boundary, bracket, "
            "rearrangement)" % count)


def test_criterion_10_exact_linear_algebra():
    rng = random.Random(31337)
    for _ in range(1000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = ExactMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(cols)]
             for _ in range(rows)], ZZ, cols=cols)
        check_snf_contract(m)
    brute_checked = 0
    while brute_checked < 30:
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = ExactMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)],
            ZZ, cols=cols)
        inv = cokernel_invariants(m)
        if inv.rank == 0 and all(f <= 6 for f in inv.torsion) \
                and len(inv.torsion) <= 3:
            gen, _ = module_gen_rel(m)
            assert gen == brute_force_gen_count(list(inv.torsion))
            brute_checked += 1
    bounds_ok = True
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(0, 5)
        m = ExactMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
            ZZ, cols=cols)
        gen, rel = module_gen_rel(m)
        bounds_ok = bounds_ok and rows >= gen and cols >= rel
    additivity_ok = True
    for _ in range(50):
        b = rng.randint(1, 6)
        a = rng.randint(0, b)
        p = random_unimodular(b, rng)
        incl = ExactMatrix.from_rows([row[:a] for row in p.data], ZZ, cols=a)
        additivity_ok = additivity_ok and rank(incl) == a
    verdict(10, "exact linear algebra", bounds_ok and additivity_ok,
            "1000 SNF contracts, %d brute-forced gen counts, "
            "presentation bounds, rank additivity" % brute_checked)
