import random
import time
from collections import deque
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from corpus import gnp_flag
from looppres.errors import (
    AlgebraMismatch,
    NotFlag,
    PreconditionViolated,
    RingMismatch,
    UnboundSymbol,
)
from looppres.exactlin import GF, QQ, ZZ
from looppres.freealg import (
    FreePolynomial,
    atom_u,
    gptw_symbol,
    graded_commutator,
    nested_commutator,
)
from looppres.pcalg import (
    PCAlgebra,
    SquarefreeModel,
    commutator_value,
    evaluate,
    graded_dimensions,
)
from looppres.presentation import Context, gptw_generators, rewrite_chat
from looppres.simplicial import (
    all_subsets,
    clique_complex,
    cycle_complex,
    disjoint_points,
    graph_complex,
    octahedron,
    rp2_minimal,
    simplex,
)

PENTAGON = PCAlgebra(cycle_complex(5))


def algebra_with_edges(m, edges, ring=ZZ):
    return PCAlgebra(clique_complex(m, edges), ring)


def test_flag_enforced():
    with pytest.raises(NotFlag):
        PCAlgebra(rp2_minimal())


def test_normalize_examples():
    alg = algebra_with_edges(2, [(1, 2)])
    assert alg.normalize((2, 1)) == (-1, (1, 2))
    assert alg.normalize((1, 1)) is None
    alg13 = algebra_with_edges(3, [(1, 3)])
    assert alg13.normalize((3, 1, 3)) is None
    chain = algebra_with_edges(3, [(1, 2), (2, 3)])
    assert chain.normalize((3, 2, 1)) == (-1, (2, 3, 1))
    # the two locally-stuck words of the documented counterexample agree:
    # (2,3,1) and (3,1,2) are both fixed by naive decreasing-swap rewriting,
    # yet equal in the algebra; the global form maps both to (2,3,1)
    assert chain.normalize((2, 3, 1)) == (1, (2, 3, 1))
    assert chain.normalize((3, 1, 2)) == (1, (2, 3, 1))


def test_normalize_idempotent():
    rng = random.Random(0)
    for _ in range(100):
        m = rng.randint(2, 6)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.5]
        alg = algebra_with_edges(m, edges)
        word = tuple(rng.randint(1, m) for _ in range(rng.randint(1, 6)))
        nf = alg.normalize(word)
        if nf is None:
            continue
        _, w = nf
        assert alg.normalize(w) == (1, w)


def signed_trace_class(adj, word):
    """Brute-force enumeration of the whole signed equivalence class."""
    start = tuple(word)
    seen = {start: 1}
    queue = deque([start])
    zero = False
    while queue:
        w = queue.popleft()
        s = seen[w]
        for t in range(len(w) - 1):
            a, b = w[t], w[t + 1]
            if a == b:
                zero = True
                continue
            if b in adj[a]:
                w2 = w[:t] + (b, a) + w[t + 2:]
                if w2 in seen:
                    if seen[w2] != -s:
                        zero = True
                else:
                    seen[w2] = -s
                    queue.append(w2)
    return zero, seen


def test_normalize_against_brute_force():
    rng = random.Random(1)
    for _ in range(250):
        m = rng.randint(2, 6)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.5]
        alg = algebra_with_edges(m, edges)
        word = tuple(rng.randint(1, m) for _ in range(rng.randint(1, 6)))
        zero, cls = signed_trace_class(alg.adjacent, word)
        nf = alg.normalize(word)
        if zero:
            assert nf is None, (word, sorted(edges))
        else:
            least = min(cls)
            assert nf == (cls[least], least), (word, sorted(edges))


def random_algebra(rng, max_m, ring=ZZ):
    m = rng.randint(2, max_m)
    p = rng.random()
    edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
             if rng.random() < p]
    return algebra_with_edges(m, edges, ring)


def test_normalize_against_brute_force_long_words():
    # letter-by-letter insertion on up to 8 letters and words up to length 9
    rng = random.Random(3)
    for _ in range(1000):
        alg = random_algebra(rng, 8)
        word = tuple(rng.randint(1, alg.m) for _ in range(rng.randint(0, 9)))
        zero, cls = signed_trace_class(alg.adjacent, word)
        nf = alg.normalize(word)
        if zero:
            assert nf is None, (word, alg.adjacent)
        else:
            least = min(cls)
            assert nf == (cls[least], least), (word, alg.adjacent)


def test_mul_of_normal_words_matches_normalize():
    rng = random.Random(4)
    for _ in range(300):
        alg = random_algebra(rng, 8)
        normal = []
        while len(normal) < 2:
            nf = alg.normalize(tuple(rng.randint(1, alg.m)
                                     for _ in range(rng.randint(0, 5))))
            if nf is not None:
                normal.append(nf[1])
        w1, w2 = normal
        product = alg.element({w1: 1}) * alg.element({w2: 1})
        nf = alg.normalize(w1 + w2)
        if nf is None:
            assert product.is_zero(), (w1, w2, alg.adjacent)
        else:
            assert product.terms == ((nf[1], nf[0]),), (w1, w2, alg.adjacent)


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)])
def test_commutator_value_matches_free_expansion(ring):
    rng = random.Random(5)
    complexes = [cycle_complex(5), cycle_complex(6), octahedron()]
    for _ in range(2):
        m = 7
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.5]
        complexes.append(clique_complex(m, edges))
    for k in complexes:
        alg = PCAlgebra(k, ring)
        for j_set in all_subsets(k.m):
            for i in j_set:
                prefix = j_set - {i}
                expanded = nested_commutator(
                    prefix, FreePolynomial.generator(atom_u(i), ring))
                assert commutator_value(alg, prefix, i) == \
                    evaluate(expanded, alg), (sorted(j_set), i)


def test_multiplication():
    u1 = PENTAGON.generator(1)
    assert (u1 * u1).is_zero()
    u2, u3 = PENTAGON.generator(2), PENTAGON.generator(3)
    prod = u1 * u2 * u3
    assert prod == PENTAGON.element({(1, 2, 3): 1})
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(2, 5)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.5]
        alg = algebra_with_edges(m, edges)

        def rand_elem():
            return alg.element({
                tuple(rng.randint(1, m) for _ in range(rng.randint(0, 3))):
                rng.randint(-2, 2) for _ in range(rng.randint(1, 3))})
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def test_defining_relations_vanish():
    for k in (cycle_complex(5), simplex(4), clique_complex(5, [(1, 2), (2, 3)])):
        alg = PCAlgebra(k)
        for i in range(1, k.m + 1):
            ui = alg.generator(i)
            assert (ui * ui).is_zero()
        for (i, j) in k.edges():
            ui, uj = alg.generator(i), alg.generator(j)
            assert (ui * uj + uj * ui).is_zero()
        for i in range(1, k.m + 1):
            for j in range(i + 1, k.m + 1):
                if (i, j) not in k.edges():
                    ui, uj = alg.generator(i), alg.generator(j)
                    assert not (ui * uj + uj * ui).is_zero()


def test_evaluate():
    val = commutator_value(PENTAGON, {3}, 1)
    assert val == PENTAGON.element({(3, 1): 1, (1, 3): 1})
    assert evaluate(FreePolynomial.zero(), PENTAGON).is_zero()
    u1 = FreePolynomial.generator(atom_u(1))
    u2 = FreePolynomial.generator(atom_u(2))
    assert evaluate(graded_commutator(u1, u2), PENTAGON).is_zero()  # edge
    g = gptw_symbol({1, 3}, 1)
    with pytest.raises(UnboundSymbol):
        evaluate(FreePolynomial.generator(g), PENTAGON)
    bound = evaluate(FreePolynomial.generator(g), PENTAGON,
                     {g: commutator_value(PENTAGON, {3}, 1)})
    assert bound == val
    with pytest.raises(RingMismatch):
        evaluate(FreePolynomial.generator(atom_u(1), GF(2)), PENTAGON)


def naive_evaluate(poly, algebra, assignment):
    """Reference: every word multiplied out afresh, summed term by term."""
    out = algebra.zero()
    for word, coeff in poly.terms.items():
        factor = algebra.one()
        for sym in word:
            factor = factor * (algebra.generator(sym.i) if sym.kind == "u"
                               else assignment[sym])
        out = out + factor.scale(coeff)
    return out


def naive_model_evaluate(model, poly, binding):
    """Reference for ``SquarefreeModel.evaluate``: every word multiplied out
    afresh, its products stopped at the first zero or off-model prefix."""
    value, rest = {}, {}
    for word, coeff in poly.terms.items():
        factor = {0: {0: model.algebra.ring.one()}}
        for sym in word:
            if not factor:
                break
            factor = model.mul(factor, model.generator(sym.i)
                               if sym.kind == "u" else binding[sym])
        if factor is None:
            rest[word] = coeff
        else:
            model.accumulate(value, factor, coeff)
    return value, rest


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)])
def test_evaluate_matches_naive_evaluation(ring):
    rng = random.Random(11)
    k = clique_complex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)])
    alg = PCAlgebra(k, ring)
    model = SquarefreeModel(alg)
    assignment = {}
    for j_set in ({1, 3}, {2, 5}, {1, 3, 5}, {1, 4}, {1, 2}):  # {1, 2}: zero
        for i in j_set:
            assignment[gptw_symbol(j_set, i)] = commutator_value(
                alg, frozenset(j_set) - {i}, i)
    binding = {sym: model.from_element(v) for sym, v in assignment.items()}
    letters = [atom_u(v) for v in range(1, 6)] + list(assignment)
    zero = gptw_symbol({1, 2}, 1)
    # (zero,) is zero in both; (u1, u1) is zero in k[K]^! and leaves the model
    prefixes = [(), (zero,), (atom_u(1), atom_u(1))]
    leaves = 0
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 30)):
            word = rng.choice(prefixes) + tuple(
                rng.choice(letters) for _ in range(rng.randint(0, 3)))
            terms[word] = ring.from_int(rng.choice([1, -1, 2, 3, -5]))
            if len(word) < 4:
                prefixes.append(word)
        poly = FreePolynomial(ring, terms)
        assert evaluate(poly, alg, assignment) == \
            naive_evaluate(poly, alg, assignment)
        value, rest = model.evaluate(poly, binding)
        assert (value, rest.terms) == \
            naive_model_evaluate(model, poly, binding)
        leaves += len(rest.terms)
    assert leaves > 40
    unbound = gptw_symbol({2, 4}, 2)
    with pytest.raises(UnboundSymbol):
        evaluate(FreePolynomial.monomial((atom_u(1), unbound), 1, ring), alg,
                 assignment)


def prefix_products(model, poly, binding):
    """The distinct nonempty prefixes of the words of ``poly`` whose shorter
    prefix is nonzero in the model: one multiplication each."""
    values, count = {(): {0: {0: model.algebra.ring.one()}}}, 0
    for word in poly.terms:
        for n in range(1, len(word) + 1):
            shorter = values[word[:n - 1]]
            if word[:n] not in values:
                count += bool(shorter)
                sym = word[n - 1]
                values[word[:n]] = shorter and model.mul(
                    shorter, model.generator(sym.i) if sym.kind == "u"
                    else binding[sym])
    return count


def test_model_evaluate_multiplies_each_prefix_once(monkeypatch):
    from looppres.presentation import (
        Context, build_presentation, gptw_assignment, rewrite_chat)
    cases = []
    ctx = Context(cycle_complex(8))
    cases.append((ctx, [build_presentation(ctx).relations[0].poly]))
    ctx = Context(gnp_flag(7, 1))
    cases.append((ctx, [rewrite_chat(ctx, j_set, i)
                        for j_set in all_subsets(7) if len(j_set) > 1
                        for i in j_set]))
    for ctx, polys in cases:
        model = ctx.model(ZZ)
        binding = {sym: model.from_element(v)
                   for sym, v in gptw_assignment(ctx).items()}
        want = [prefix_products(model, poly, binding) for poly in polys]
        real, calls = model.mul, []

        def counting(x, y):
            calls.append(1)
            return real(x, y)
        got = []
        with monkeypatch.context() as patch:
            patch.setattr(model, "mul", counting)
            for poly in polys:
                del calls[:]
                model.evaluate(poly, binding)
                got.append(len(calls))
        assert got == want
        assert sum(want) < sum(map(len, (w for poly in polys
                                         for w in poly.terms)))  # shared


def test_evaluators_skip_symbols_after_a_zero_prefix():
    # the symbols after a zero prefix, or one that leaves the model, are not
    # looked up: an unbound one there raises nothing
    alg = PCAlgebra(cycle_complex(5))
    model = SquarefreeModel(alg)
    zero, unbound = gptw_symbol({1, 2}, 1), gptw_symbol({1, 3}, 1)
    assignment = {zero: commutator_value(alg, {2}, 1)}  # 1, 2 span an edge
    binding = {zero: model.from_element(assignment[zero])}
    assert assignment[zero].is_zero() and binding[zero] == {}
    u1 = atom_u(1)
    for word in ((zero, unbound), (u1, u1, unbound), (u1, zero, u1, unbound)):
        poly = FreePolynomial.monomial(word, 1)
        assert evaluate(poly, alg, assignment).is_zero()
        value, rest = model.evaluate(poly, binding)
        assert value == {} and rest.terms == (
            {word: 1} if word[:2] == (u1, u1) else {})
    for word in ((unbound,), (u1, unbound)):
        poly = FreePolynomial.monomial(word, 1)
        with pytest.raises(UnboundSymbol):
            evaluate(poly, alg, assignment)
        with pytest.raises(UnboundSymbol):
            model.evaluate(poly, binding)


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_sums_keep_ring_elements(ring):
    """+, * and evaluate sum with plain + and * and settle once: over Q the
    coefficients stay Fractions, over F_p they are residues in [1, p)."""
    alg = PCAlgebra(cycle_complex(5), ring)
    rng = random.Random(17)
    coeffs = [1, -1, 2, -3, 4] + ([Fraction(-1, 2)] if ring == QQ else [])

    def settled(x):
        if ring == QQ:
            return all(type(c) is Fraction and c for _, c in x.terms)
        return all(type(c) is int and 0 < c < ring.p for _, c in x.terms)

    def random_element():
        return alg.element({
            tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3))):
            rng.choice(coeffs) for _ in range(6)})

    u = [FreePolynomial.generator(atom_u(v), ring) for v in range(1, 6)]
    for _ in range(30):
        x, y = random_element(), random_element()
        for z in (x + y, x - y, x * y, y * x, x * y - y * x):
            assert settled(z)
        assert (x + x.scale(-1)).is_zero()
        poly = (u[0] * u[2]).scale(rng.choice(coeffs[:5])) + \
            (u[2] * u[0]).scale(rng.choice(coeffs[:5])) + u[1].scale(-3)
        assert settled(evaluate(poly, alg))
    if ring.p:  # p copies of x sum to 0 in F_p
        total = x
        for _ in range(ring.p - 1):
            total = total + x
        assert total.is_zero()


def test_algebra_mismatch():
    other = PCAlgebra(cycle_complex(4))
    with pytest.raises(AlgebraMismatch):
        PENTAGON.generator(1) * other.generator(1)


def poly_mul_trunc(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        for j, y in enumerate(b[:n + 1]):
            if i + j <= n:
                out[i + j] += x * y
    return out


def series_inverse(p, n):
    assert p[0] == 1
    inv = [0] * (n + 1)
    inv[0] = 1
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, min(k, len(p) - 1) + 1):
            acc += p[i] * inv[k - i]
        inv[k] = -acc
    return inv


def koszul_dual_series(k, n):
    """(1+t)^d / h_K(-t) truncated at degree n."""
    from looppres.simplicial import f_h_vectors
    _, h, d = f_h_vectors(k)
    h_neg = [(-1) ** i * c for i, c in enumerate(h)]
    num = [comb(d, i) for i in range(d + 1)]
    return poly_mul_trunc(num, series_inverse(h_neg, n), n)


def test_graded_dimensions_simplex():
    for m in range(1, 6):
        alg = PCAlgebra(simplex(m))
        dims = graded_dimensions(alg, m + 2)
        assert dims == [comb(m, k) for k in range(m + 3)]


def test_graded_dimensions_discrete():
    for m in (2, 3, 4):
        alg = PCAlgebra(disjoint_points(m))
        dims = graded_dimensions(alg, 6)
        expect = [1, m] + [m * (m - 1) ** (k - 1) for k in range(2, 7)]
        assert dims == expect


def test_graded_dimensions_match_koszul_dual_series():
    complexes = [cycle_complex(4), cycle_complex(5), cycle_complex(6),
                 simplex(3), disjoint_points(3),
                 clique_complex(5, [(1, 2), (2, 3), (3, 4), (1, 3)])]
    for k in complexes:
        alg = PCAlgebra(k)
        dims = graded_dimensions(alg, 8)
        assert dims == koszul_dual_series(k, 8), k


def test_hand_counted_dimensions():
    # pentagon degree 2: 5 edge words + 10 diagonal words = 15
    assert graded_dimensions(PENTAGON, 2) == [1, 5, 15]
    # square degree 2: 4 edge words + 4 diagonal words
    alg = PCAlgebra(cycle_complex(4))
    assert graded_dimensions(alg, 2) == [1, 4, 8]


def test_graded_dimensions_count_normal_words():
    # brute force: every word of length <= 5, kept iff it is its own normal form
    rng = random.Random(41)
    for _ in range(12):
        m = rng.randint(2, 5)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.5]
        alg = algebra_with_edges(m, edges)
        expect = [sum(1 for w in product(range(1, m + 1), repeat=n)
                      if (alg.normalize(w) or (0, None))[1] == w)
                  for n in range(6)]
        assert graded_dimensions(alg, 5) == expect, (m, edges)


def test_graded_dimensions_10gon_degree_64():
    k = cycle_complex(10)
    start = time.process_time()
    dims = graded_dimensions(PCAlgebra(k), 64)
    assert time.process_time() - start < 1.0
    assert dims == koszul_dual_series(k, 64)


def test_extension_check_agrees_with_normalize():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(2, 5)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < 0.4]
        alg = algebra_with_edges(m, edges)
        # every counted word is normal, every normal word is counted
        counted = set()

        def walk(word, depth):
            counted.add(word)
            if depth == 0:
                return
            for v in range(1, m + 1):
                nf = alg.normalize(word + (v,))
                if nf == (1, word + (v,)):
                    walk(word + (v,), depth - 1)
        walk((), 4)
        dims = graded_dimensions(alg, 4)
        by_len = {}
        for w in counted:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert [by_len.get(i, 0) for i in range(5)] == dims


# ---------------------------------------------------------------------------
# the squarefree model against the normal form
# ---------------------------------------------------------------------------

MODEL_CASES = {
    "5-gon": lambda: cycle_complex(5),
    "6-gon": lambda: cycle_complex(6),
    "7-gon": lambda: cycle_complex(7),
    "octahedron": octahedron,
    "G(7,0.5) seed 1": lambda: gnp_flag(7, 1),
    "G(7,0.5) seed 2": lambda: gnp_flag(7, 2),
    "G(7,0.5) seed 3": lambda: gnp_flag(7, 3),
}


def random_squarefree_element(alg, rng, letters):
    """A normal-form element: a few words, each with distinct letters drawn
    from ``letters``, so supports may differ from word to word."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = rng.sample(letters, rng.randint(1, len(letters)))
        terms[tuple(word)] = rng.choice([1, -1, 2, -3, 5])
    return alg.element(terms)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)], ids=repr)
@pytest.mark.parametrize("name", sorted(MODEL_CASES))
def test_model_matches_normal_form(name, ring):
    k = MODEL_CASES[name]()
    alg = PCAlgebra(k, ring)
    model = SquarefreeModel(alg)
    for j_set in all_subsets(k.m):
        for i in j_set:
            assert model.from_element(commutator_value(alg, j_set - {i}, i)) \
                == model.commutator(j_set - {i}, i), (sorted(j_set), i)
    rng = random.Random(sorted(MODEL_CASES).index(name))
    vertices = list(range(1, k.m + 1))
    for _ in range(300):
        rng.shuffle(vertices)
        cut = rng.randint(1, k.m - 1)
        x = random_squarefree_element(alg, rng, vertices[:cut])
        y = random_squarefree_element(alg, rng, vertices[cut:])
        assert model.from_element(x * y) == \
            model.mul(model.from_element(x), model.from_element(y)), (x, y)


ENCODING_CASES = {"pentagon": lambda: cycle_complex(5),
                  "hexagon": lambda: cycle_complex(6), "octahedron": octahedron,
                  **{"gnp7_%d" % s: (lambda s=s: gnp_flag(7, s))
                     for s in (1, 2, 3)}}


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=repr)
@pytest.mark.parametrize("name", sorted(ENCODING_CASES))
def test_model_supports_are_face_index_masks(name, ring):
    # the model keys a support by the face index's mask of its vertices
    k = ENCODING_CASES[name]()
    model = SquarefreeModel(PCAlgebra(k, ring))
    for j_set in all_subsets(k.m):
        for i in j_set:
            assert all(s == k.index.mask(j_set)
                       for s in model.commutator(j_set - {i}, i)), (j_set, i)
    words = [w for g in gptw_generators(k, ring) for w, _ in g.value.terms]
    assert words and all(model.word(w)[0] == k.index.mask(w) for w in words)


def test_model_keys_carry_the_support():
    # u1 and u2 both have the empty orientation; keyed by orientation alone
    # they would merge and u1 - u2 would read as zero
    model = SquarefreeModel(PENTAGON)
    diff = {}
    model.accumulate(diff, model.generator(1))
    model.accumulate(diff, model.generator(2), -1)
    assert diff and len(diff) == 2
    assert diff == model.from_element(PENTAGON.generator(1)
                                      - PENTAGON.generator(2))
    assert model.mul(model.generator(1), model.generator(1)) is None
    with pytest.raises(PreconditionViolated):
        model.from_element(PENTAGON.element({(1, 3, 1): 1}))
    with pytest.raises(AlgebraMismatch):
        model.from_element(PCAlgebra(cycle_complex(6)).generator(1))


def test_model_evaluate_splits_off_words_that_leave_it():
    model = SquarefreeModel(PENTAGON)
    g = gptw_symbol({1, 3}, 1)
    binding = {g: model.commutator({3}, 1)}
    u1, u2, u3 = (FreePolynomial.generator(atom_u(v)) for v in (1, 2, 3))
    gen = FreePolynomial.generator(g)
    value, rest = model.evaluate(gen * u2 + u1 * u3 * u1 - u3 * u1, binding)
    want = {}
    model.accumulate(want, model.mul(model.commutator({3}, 1),
                                     model.generator(2)))
    model.accumulate(want, model.mul(model.generator(3), model.generator(1)),
                     -1)
    assert value == want
    assert rest == u1 * u3 * u1
    with pytest.raises(UnboundSymbol):
        model.evaluate(FreePolynomial.generator(gptw_symbol({2, 4}, 2)),
                       binding)
    with pytest.raises(RingMismatch):
        model.evaluate(FreePolynomial.generator(atom_u(1), QQ), binding)


@pytest.mark.parametrize("m", [5, 6])
def test_model_commutators_keep_int_coefficients_over_q(m):
    # the model's unit is the integer 1, so over Q its generators and
    # commutators carry no Fraction
    model = SquarefreeModel(PCAlgebra(cycle_complex(m), QQ))
    values = [model.commutator(j_set - {i}, i)
              for j_set in all_subsets(m) for i in j_set]
    coeffs = [c for v in values for t in v.values() for c in t.values()]
    assert coeffs and all(type(c) is int for c in coeffs)


@pytest.mark.parametrize("ring", [GF(3), QQ], ids=repr)
def test_integer_rewrites_evaluate_in_any_ring(ring):
    # a polynomial over Z reaches every ring through Z -> R, in k[K]^! and
    # in the model alike: its value is that of its convert_ring image
    ctx = Context(cycle_complex(6))
    alg, model = ctx.algebra(ring), ctx.model(ring)
    gens = gptw_generators(ctx, ring)
    assignment = {g.symbol: g.value for g in gens}
    binding = {g.symbol: model.commutator(g.j_set - {g.i}, g.i) for g in gens}
    polys = [rewrite_chat(ctx, j_set, i) for j_set in all_subsets(6)
             if len(j_set) > 1 for i in j_set]
    assert polys
    for poly in polys:
        assert poly.ring == ZZ
        image = poly.convert_ring(ring)
        assert evaluate(poly, alg, assignment) == \
            evaluate(image, alg, assignment)
        (value, rest), (want, want_rest) = (model.evaluate(poly, binding),
                                            model.evaluate(image, binding))
        assert value == want and rest.convert_ring(ring) == want_rest


def test_only_integer_polynomials_cross_rings():
    # Z -> R is the one ring map the evaluators apply; F2 into Q is refused
    alg = PCAlgebra(cycle_complex(5), QQ)
    poly = FreePolynomial.generator(atom_u(1), GF(2))
    with pytest.raises(RingMismatch):
        evaluate(poly, alg)
    with pytest.raises(RingMismatch):
        SquarefreeModel(alg).evaluate(poly, {})
