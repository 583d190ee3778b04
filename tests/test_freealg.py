import pickle
import random
from itertools import combinations, product

import pytest

from looppres.errors import NotHomogeneous, PreconditionViolated
from looppres.exactlin import GF, ZZ
from looppres.freealg import (
    FreePolynomial,
    GeneratorSymbol,
    accumulate,
    atom_u,
    expand_c_of_bracket,
    expand_uI_uj,
    expand_uI_x,
    gptw_symbol,
    graded_commutator,
    koszul_theta,
    nested_commutator,
    ordered_splits,
    overline,
    rearrangement_identity_lhs,
    rearrangement_identity_rhs,
    render_nested_commutator,
    u_word,
    word_multidegree,
)


def u(i):
    return FreePolynomial.generator(atom_u(i))


def random_word_poly(rng, m=6, maxlen=3):
    length = rng.randint(1, maxlen)
    word = tuple(atom_u(rng.randint(1, m)) for _ in range(length))
    return FreePolynomial.monomial(word, rng.choice([1, -1, 2]))


def random_subset(rng, m=6):
    return frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)


def test_product_examples():
    assert (u(1) * u(2)).terms == {(atom_u(1), atom_u(2)): 1}
    lhs = (u(1) + u(2)) * u(1)
    assert lhs == FreePolynomial.monomial((atom_u(1), atom_u(1))) + \
        FreePolynomial.monomial((atom_u(2), atom_u(1)))
    assert (FreePolynomial.zero() * u(1)).is_zero()
    # associativity and unit
    rng = random.Random(0)
    for _ in range(20):
        a, b, c = (random_word_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * FreePolynomial.unit() == a


def test_overline():
    assert overline(u(1)) == u(1)
    w12 = u(1) * u(2)
    assert overline(w12) == -w12
    rng = random.Random(1)
    for _ in range(20):
        p = random_word_poly(rng)
        assert overline(overline(p)) == p
    with pytest.raises(NotHomogeneous):
        overline(u(1) + u(1) * u(2))


def test_graded_commutator_examples():
    c12 = graded_commutator(u(1), u(2))
    assert c12 == u(1) * u(2) + u(2) * u(1)
    c = graded_commutator(u(1) * u(2), u(3))
    assert c == u(1) * u(2) * u(3) - u(3) * u(1) * u(2)
    assert graded_commutator(u(1), u(1)) == 2 * (u(1) * u(1))


def test_nested_commutator():
    assert nested_commutator({3}, u(1)) == u(3) * u(1) + u(1) * u(3)
    x = u(1) * u(2)
    assert nested_commutator(set(), x) == x
    expect = graded_commutator(u(2), graded_commutator(u(4), u(1)))
    assert nested_commutator({2, 4}, u(1)) == expect


def test_koszul_theta():
    assert koszul_theta({4}, {3, 5}) == 1
    assert koszul_theta({3}, {4, 5}) == 0
    assert koszul_theta({1, 2}, set()) == 0


def test_theta_parity_and_concatenation():
    rng = random.Random(2)
    for _ in range(200):
        pool = list(range(1, 9))
        rng.shuffle(pool)
        a = frozenset(pool[:rng.randint(0, 4)])
        b = frozenset(pool[4:4 + rng.randint(0, 4)])
        assert (koszul_theta(a, b) + koszul_theta(b, a)) % 2 == \
            (len(a) * len(b)) % 2
    for _ in range(200):
        low = [v for v in range(1, 5) if rng.random() < 0.6]
        high = [v for v in range(5, 9) if rng.random() < 0.6]
        a1 = frozenset(v for v in low if rng.random() < 0.5)
        b1 = frozenset(low) - a1
        a2 = frozenset(v for v in high if rng.random() < 0.5)
        b2 = frozenset(high) - a2
        assert koszul_theta(a1 | a2, b1 | b2) % 2 == \
            (koszul_theta(a1, b1) + koszul_theta(a2, b2)
             + len(a2) * len(b1)) % 2


def test_graded_jacobi():
    rng = random.Random(3)
    for _ in range(60):
        x, y, z = (random_word_poly(rng, maxlen=2) for _ in range(3))
        dx = x.total_degree()
        dy = y.total_degree()
        lhs = graded_commutator(x, graded_commutator(y, z))
        rhs = graded_commutator(graded_commutator(x, y), z)
        tail = graded_commutator(y, graded_commutator(x, z))
        if (dx * dy) % 2:
            tail = -tail
        assert lhs == rhs + tail


def test_identity_regroup_uI_x():
    rng = random.Random(4)
    for _ in range(500):
        i_set = random_subset(rng)
        x = random_word_poly(rng)
        assert u_word(i_set) * x == expand_uI_x(i_set, x)


def test_identity_uI_uj():
    # the hand-checkable case from the worked expansion
    assert expand_uI_uj({3}, 2) == u(3) * u(2)
    assert expand_uI_x(set(), u(1)) == u(1)
    rng = random.Random(5)
    for _ in range(300):
        i_set = random_subset(rng)
        j = rng.randint(1, 6)
        assert u_word(i_set) * u(j) == expand_uI_uj(i_set, j)


def test_identity_c_of_bracket():
    x, y = u(1), u(2)
    assert expand_c_of_bracket(set(), x, y) == graded_commutator(x, y)
    rng = random.Random(6)
    for _ in range(300):
        i_set = random_subset(rng)
        x = random_word_poly(rng, maxlen=2)
        y = random_word_poly(rng, maxlen=2)
        lhs = nested_commutator(i_set, graded_commutator(x, y))
        assert lhs == expand_c_of_bracket(i_set, x, y)


def test_rearrangement_identity_examples():
    # J = {1,2,3}, i=1, j=2: no valid partitions, pure boundary terms
    rhs = rearrangement_identity_rhs({1, 2, 3}, 1, 2)
    expect = -nested_commutator({2, 3}, u(1)) - nested_commutator({1, 3}, u(2))
    assert rhs == expect
    # J = {1,2,3,4}, i=1, j=3: exactly one commutator partition, A={2}, B={4}
    rhs = rearrangement_identity_rhs({1, 2, 3, 4}, 1, 3)
    boundary = -nested_commutator({2, 3, 4}, u(1)) \
        + nested_commutator({1, 2, 4}, u(3))
    comm = graded_commutator(nested_commutator({2}, u(1)),
                             nested_commutator({4}, u(3)))
    # theta({2},{4}) = 0, |B| = 1
    assert rhs == boundary - comm
    with pytest.raises(PreconditionViolated):
        rearrangement_identity_rhs({1, 2, 3}, 2, 1)
    with pytest.raises(PreconditionViolated):
        rearrangement_identity_rhs({1, 2, 3}, 2, 3)  # J_{>3} empty


def exhaustive_rearrangement_cases(m):
    for size in range(3, m + 1):
        for j_tuple in combinations(range(1, m + 1), size):
            j_set = frozenset(j_tuple)
            top = max(j_set)
            for i, j in combinations(sorted(j_set), 2):
                if j < top:
                    yield j_set, i, j


def test_rearrangement_identity_all_of_m6():
    count = 0
    for j_set, i, j in exhaustive_rearrangement_cases(6):
        lhs = rearrangement_identity_lhs(j_set, i, j)
        rhs = rearrangement_identity_rhs(j_set, i, j)
        assert lhs == rhs, (sorted(j_set), i, j)
        count += 1
    assert count == 111


def test_multidegree_bookkeeping():
    g = gptw_symbol({1, 3, 4}, 1)
    assert g.total_degree == 3 and g.hom_degree == -3
    assert word_multidegree((g, atom_u(2))) == ((1, 2), (2, 2), (3, 2), (4, 2))
    p = FreePolynomial.generator(g)
    assert p.total_degree() == 3
    assert p.multidegree() == ((1, 2), (3, 2), (4, 2))


def test_rendering():
    assert render_nested_commutator([3, 4], 1) == "[u3,[u4,u1]]"
    g = gptw_symbol({1, 3, 4}, 1)
    assert g.render() == "[u3,[u4,u1]]"
    p = -FreePolynomial.generator(g) + u(2) * u(1)
    assert p.render() == "u2*u1 - [u3,[u4,u1]]"


def test_ring_conversion():
    p = 3 * (u(1) * u(2)) - 5 * (u(2) * u(1))
    q = p.convert_ring(GF(3))
    assert list(q.terms.values()) == [1]  # 3 vanishes, -5 = 1 mod 3
    assert p.convert_ring(ZZ) is p


def test_symbols_are_interned():
    assert atom_u(3) is atom_u(3)
    assert GeneratorSymbol("u", 3) is atom_u(3)
    g = gptw_symbol([4, 1, 3], 1)
    assert gptw_symbol({1, 3, 4}, 1) is g
    assert gptw_symbol(frozenset({3, 4, 1}), 1) is g
    assert GeneratorSymbol("g", 1, (3, 1, 4)) is g
    assert gptw_symbol({1, 3, 4}, 3) is not g
    assert pickle.loads(pickle.dumps(g)) is g
    # keys and texts are those of the uninterned symbols
    assert atom_u(3).sort_key() == (0, (3,), 3)
    assert atom_u(3).render() == "u3"
    assert g.sort_key() == (1, (1, 3, 4), 1)
    assert g.render() == "[u3,[u4,u1]]"
    assert gptw_symbol({1, 3, 4}, 3).render() == "[u1,[u4,u3]]"


def test_accumulate_matches_repeated_addition():
    rng = random.Random(5)
    for _ in range(20):
        polys = [random_word_poly(rng, m=3, maxlen=2) for _ in range(8)]
        coeffs = [rng.choice([1, -1, 2, -3]) for _ in polys]
        acc = {}
        total = FreePolynomial.zero()
        for p, c in zip(polys, coeffs):
            accumulate(acc, p, c)
            total = total + p.scale(c)
        assert acc == total.terms
        assert 0 not in acc.values()


def test_cancellation_over_f2_stores_no_zero():
    f2 = GF(2)
    p = (FreePolynomial.generator(atom_u(1), f2)
         * FreePolynomial.generator(atom_u(2), f2)
         + FreePolynomial.generator(atom_u(3), f2))
    assert (p + p).terms == {}
    acc = {}
    accumulate(acc, p)
    accumulate(acc, p)
    assert acc == {}
    accumulate(acc, p, 3)  # 3 = 1 in F_2
    assert acc == p.terms
    accumulate(acc, p, 2)  # 2 = 0 in F_2: no change, nothing stored
    assert acc == p.terms
    accumulate(acc, p, -1)
    assert acc == {}


def brute_force_splits(items, bounds):
    """Every labelling of the items by block index, filtered by the bounds."""
    items = sorted(items)
    out = set()
    for labels in product(range(len(bounds)), repeat=len(items)):
        blocks = tuple(frozenset(x for x, t in zip(items, labels) if t == b)
                       for b in range(len(bounds)))
        if all(bound is None or (block and max(block) > bound)
               for block, bound in zip(blocks, bounds)):
            out.add(blocks)
    return out


def test_ordered_splits_against_brute_force():
    rng = random.Random(7)
    choices = [None, 0, 1, 2, 3, 4, 5, 6]
    cases = [((), ()), ((), (None,)), ((), (None, None)), ((), (2, None)),
             ({1, 2}, ()), ({3}, (None,)), ({3}, (3,)), ({3}, (2,))]
    for _ in range(150):
        items = random_subset(rng)
        bounds = tuple(rng.choice(choices)
                       for _ in range(rng.randint(1, 3)))
        cases.append((items, bounds))
    for items, bounds in cases:
        got = list(ordered_splits(items, bounds))
        assert len(got) == len(set(got)), (items, bounds)
        assert set(got) == brute_force_splits(items, bounds), \
            (items, bounds)
        for blocks in got:
            assert len(blocks) == len(bounds)
            assert all(isinstance(b, frozenset) for b in blocks)


def test_ordered_splits_two_blocks_in_bitmask_order():
    # relation terms, and so the rendered relation text, follow this order
    rng = random.Random(8)
    for _ in range(60):
        items = random_subset(rng, m=7)
        bounds = (rng.choice([None, 0, 2, 4]), rng.choice([None, 0, 3, 5]))
        rest = sorted(items)
        expected = []
        for mask in range(1 << len(rest)):
            a = frozenset(rest[t] for t in range(len(rest)) if mask >> t & 1)
            b = frozenset(rest) - a
            if all(bound is None or (block and max(block) > bound)
                   for block, bound in zip((a, b), bounds)):
                expected.append((a, b))
        assert list(ordered_splits(items, bounds)) == expected
