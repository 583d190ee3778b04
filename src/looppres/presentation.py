"""Minimal presentations of the loop homology algebra of a moment-angle
complex over a flag complex.

Generators: one nested commutator c(J \\ i, u_i) for every subset J and
every i in Theta(J) (the smallest vertices of path components of K_J other
than the component of max(J)).  Relations: one per generating 1-cycle of
H_1(K_J), synthesized from partitions of J minus an edge.

The rewriting engine expresses an arbitrary c(J \\ i, u_i) as a
non-commutative polynomial in the generators.  Recursion scheme, with
rank(i) the graph distance in K_J to max(J) (same component) or to the
smallest vertex of i's component (different component), both read from
``FaceIndex.distances``:

1. i = max(J): c(J\\i, u_i) = c(J\\j, u_j) for j = max(J \\ i).
2. same component as max(J): rank 1 means {i, max(J)} is an edge and the
   element is 0; otherwise step to the least neighbor j of i of rank one
   less and solve the rearrangement identity on the edge {i, j} for
   c(J\\i, u_i), rewriting every lower-degree commutator recursively.
3. different component: rank 0 means i is a generator index; otherwise
   reduce the rank exactly as in case 2, walking towards min(component).

Results are ring-independent (+-1 sums over Z) and memoized in a ``Context``,
one per computation, which every function taking the complex also takes.
Each bracket [chat(A, u_a), chat(B, u_b)] is added by ``add_bracket`` with
the known degrees |A|+1 and |B|+1, and each sum drops its zeros once at the
end.  Relation synthesis sums each edge's brackets over Z and brings them
into the ring once.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    AlgebraMismatch,
    ChainConditionViolated,
    NotACycle,
    PreconditionViolated,
    RingMismatch,
    UnboundSymbol,
)
from .exactlin import ExactMatrix, ZZ, cokernel_invariants, direct_sum
from .freealg import (
    FreePolynomial,
    accumulate,
    add_bracket,
    gptw_symbol,
    koszul_theta,
    ordered_splits,
    render_sum,
    settle,
    word_sort_key,
)
from .pcalg import PCAlgebra, SquarefreeModel, commutator_value, evaluate
from .simplicial import (
    SimplicialCycle,
    _mask,
    all_subsets,
    is_cycle,
    reduced_homology,
    reduced_homology_invariants,
    require_flag,
    theta_set,
)
from .torbar import bar_cycle_closed, epsilon_sign, koszul_invariants


class Context:
    """One computation's flag complex (checked once) and memos."""

    def __init__(self, k):
        require_flag(k)
        self.complex = k
        self.rewrites = {}  # (J, i) -> rewrite_chat
        self.chat_texts = {}  # (ring kind, p, J, i) -> _chat_text
        self.algebra_by_ring = {}
        self.model_by_ring = {}
        self.cycles = {}  # (ring, J, degree) -> nonzero reduced_homology

    def algebra(self, ring):  # setdefault: racing threads get one k[K]^!
        if ring not in self.algebra_by_ring:
            self.algebra_by_ring.setdefault(ring, PCAlgebra(self.complex, ring))
        return self.algebra_by_ring[ring]

    def model(self, ring):
        """The squarefree model of ``algebra(ring)``."""
        if ring not in self.model_by_ring:
            self.model_by_ring.setdefault(
                ring, SquarefreeModel(self.algebra(ring)))
        return self.model_by_ring[ring]

    def homology(self, j_set, ring, degree):
        """``reduced_homology`` of K_J; a nonzero one is kept for reuse."""
        key = (ring, j_set, degree)
        if key in self.cycles:
            return self.cycles[key]
        result = reduced_homology(self.complex, j_set, ring, degree)
        if result[0].is_zero():
            return result
        return self.cycles.setdefault(key, result)


def _context(k):
    return k if isinstance(k, Context) else Context(k)


def pc_algebra(k, ring=ZZ):
    """k[K]^! over ``ring``: the context's own when ``k`` is a Context."""
    return _context(k).algebra(ring)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GptwGenerator:
    j_set: frozenset
    i: int
    symbol: object
    value: object  # PCElement

    @property
    def degree(self):
        return len(self.j_set)


def gptw_generators(k, ring=ZZ):
    """All generators c(J - i, u_i), i in ``theta_set(k, J)``, ordered by
    (|J|, J bitmask, i); values in k[K]^!."""
    ctx = _context(k)
    algebra = ctx.algebra(ring)
    out = []
    for j_set in all_subsets(ctx.complex.m):
        if len(j_set) < 2:
            continue
        for i in theta_set(ctx.complex, j_set):
            value = commutator_value(algebra, j_set - {i}, i)
            assert not value.is_zero(), (sorted(j_set), i)
            out.append(GptwGenerator(j_set=j_set, i=i,
                                     symbol=gptw_symbol(j_set, i),
                                     value=value))
    out.sort(key=lambda g: (len(g.j_set), _mask(g.j_set), g.i))
    return out


def gptw_assignment(k, ring=ZZ):
    """Symbol -> value binding for evaluating rewritten polynomials."""
    return {g.symbol: g.value for g in gptw_generators(k, ring)}


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

_IN_PROGRESS = threading.local()  # .calls: this thread's (ctx, J, i) set


def rewrite_chat(k, j_set, i):
    """c(J \\ i, u_i) as an integer polynomial in generator symbols.

    Memoized in the context; calls in progress are tracked per thread, so
    concurrent calls are safe.  Requires |J| >= 2: for J = {i} the element
    u_i does not lie in the loop homology subalgebra at all.
    """
    ctx = _context(k)
    memo, key = ctx.rewrites, (frozenset(j_set), i)
    if key in memo:
        return memo[key]
    j_set = key[0]
    if i not in j_set:
        raise PreconditionViolated("i=%d not in J=%s" % (i, sorted(j_set)))
    if len(j_set) < 2:
        raise PreconditionViolated("rewriting needs |J| >= 2")
    in_progress = vars(_IN_PROGRESS).setdefault("calls", set())
    call = (ctx, j_set, i)
    if call in in_progress:
        raise AssertionError("rewrite recursion cycle at %r" % (key,))
    in_progress.add(call)
    try:
        result = _rewrite_uncached(ctx, j_set, i)
    finally:
        in_progress.discard(call)
    memo[key] = result
    return result


def _rewrite_uncached(ctx, j_set, i):
    top = max(j_set)
    if i == top:
        return rewrite_chat(ctx, j_set, max(j_set - {i}))
    index = ctx.complex.index
    dist = index.distances(j_set, top)
    if i in dist:
        if dist[i] == 1:  # {i, max(J)} is an edge
            return FreePolynomial.zero(ZZ)
    else:
        anchor = min(index.distances(j_set, i))
        if i == anchor:
            return FreePolynomial.generator(gptw_symbol(j_set, i), ZZ)
        dist = index.distances(j_set, anchor)
    closer = dist[i] - 1
    neighbor = min(v for v in ctx.complex.adjacency[i]
                   if dist.get(v) == closer)
    return _solve_rearrangement(ctx, j_set, i, neighbor)


def _solve_rearrangement(ctx, j_set, i, neighbor):
    """Solve the rearrangement identity for c(J\\i, u_i), given an edge
    {i, neighbor} of K_J whose bracket [u_a, u_b] vanishes.

    With a < b the two endpoints and J_{>b} nonempty (guaranteed: max(J)
    exceeds both endpoints whenever this is called):

      0 = (-1)^{|J_{>b}|} c(J\\a, u_a) - (-1)^{|J_{>a}|} c(J\\b, u_b)
        + sum_{J\\ab = A+B, A_{>a} != 0, B_{>b} != 0}
          (-1)^{theta(A,B)+|B|} [c(A,u_a), c(B,u_b)].
    """
    a, b = min(i, neighbor), max(i, neighbor)
    above_a = sum(1 for v in j_set if v > a)
    above_b = sum(1 for v in j_set if v > b)
    if above_b == 0:
        raise AssertionError("J_{>b} empty for %s, %d, %d"
                             % (sorted(j_set), a, b))
    lead = 1 if (above_a + above_b) % 2 == 0 else -1
    if i == a:
        other, tail = b, (-1 if above_b % 2 == 0 else 1)
    else:
        other, tail = a, (1 if above_a % 2 == 0 else -1)
    out = {}
    for a_set, b_set in ordered_splits(j_set - {a, b}, (a, b)):
        sign = (koszul_theta(a_set, b_set) + len(b_set)) % 2
        add_bracket(out, rewrite_chat(ctx, a_set | {a}, a),
                    rewrite_chat(ctx, b_set | {b}, b),
                    len(a_set) + 1, len(b_set) + 1, -tail if sign else tail)
    accumulate(out, rewrite_chat(ctx, j_set, other), lead)
    return settle(out)


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorTerm:
    """One alive [chat(A, u_i), chat(B, u_j)] summand of a relation.

    The summands that vanish on sight, because max(A) is K-adjacent to i
    (or max(B) to j), are not kept; the classical m-gon term counts
    (7+10+4 = 21 for the hexagon) enumerate the alive ones.
    """

    i: int
    j: int
    a_set: frozenset
    b_set: frozenset
    coeff: object


@dataclass(frozen=True)
class Relation:
    degree: int
    poly: object  # FreePolynomial in generator symbols
    parts: tuple  # ((j_set, SimplicialCycle), ...)
    terms: tuple  # CommutatorTerm metadata of the alive summands

    @property
    def j_set(self):
        return self.parts[0][0] if len(self.parts) == 1 else None

    def alive_terms_by_edge(self):
        out = {}
        for t in self.terms:
            out[t.i, t.j] = out.get((t.i, t.j), 0) + 1
        return out


def _normalize_sign(rel):
    """Fix the unit ambiguity: lex-least word gets a positive coefficient
    (over Z and Q) or coefficient 1 (over F_p)."""
    poly = rel.poly
    ring = poly.ring
    lead = poly.leading_word()
    if lead is None:
        return rel
    c = poly.terms[lead]
    if ring.kind == "Fp":
        unit = ring.inv(c)
        if unit == ring.one():
            return rel
    elif c < 0:
        unit = ring.from_int(-1)
    else:
        return rel
    return Relation(rel.degree, poly.scale(unit), rel.parts, tuple(
        CommutatorTerm(t.i, t.j, t.a_set, t.b_set, ring.mul(unit, t.coeff))
        for t in rel.terms))


def relation_for_cycle(k, kappa, ring=ZZ, normalize_sign=True):
    """The defining relation attached to a simplicial 1-cycle in K_J.

    Sum over edges {i<j} of the cycle and partitions J\\{i,j} = A+B with
    max(A) > i, max(B) > j of

        (-1)^{|J_<i|+|J_<j|} lambda_{ij} (-1)^{theta(A,B)+|A|}
        [chat(A, u_i), chat(B, u_j)],

    each chat taken from the rewriting engine.  The brackets of one edge are
    summed over Z and enter ``ring`` once, scaled by
    (-1)^{|J_<i|+|J_<j|} lambda_{ij}.  The polynomial evaluates to zero in
    k[K]^!.
    """
    ctx = _context(k)
    j_set = frozenset(kappa.j)
    if kappa.dimension != 1 or any(len(f) != 2 for f, _ in kappa.terms):
        raise NotACycle("relation synthesis needs a chain of edges")
    if not is_cycle(ctx.complex, kappa, ring):
        raise NotACycle("chain has nonzero boundary")
    poly, terms, zero = {}, [], ring.zero()
    adjacency = ctx.complex.adjacency
    for face, lam in kappa.terms:
        i, j = sorted(face)
        if not ctx.complex.has_face(face):
            raise NotACycle("edge %s not in K" % sorted(face))
        base = ring.mul(lam, ring.from_int(epsilon_sign(face, j_set)))
        edge_sum = {}
        for a_set, b_set in ordered_splits(j_set - face, (i, j)):
            odd = (koszul_theta(a_set, b_set) + len(a_set)) % 2
            if (i not in adjacency[max(a_set)]
                    and j not in adjacency[max(b_set)]):
                terms.append(CommutatorTerm(
                    i, j, a_set, b_set, ring.neg(base) if odd else base))
            add_bracket(edge_sum, rewrite_chat(ctx, a_set | {i}, i),
                        rewrite_chat(ctx, b_set | {j}, j),
                        len(a_set) + 1, len(b_set) + 1, -1 if odd else 1)
        for word, c in edge_sum.items():
            if c:
                poly[word] = poly.get(word, zero) + base * c
    rel = Relation(degree=len(j_set), poly=settle(poly, ring),
                   parts=((j_set, kappa),), terms=tuple(terms))
    return _normalize_sign(rel) if normalize_sign else rel


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

@dataclass
class PresentationCertificate:
    """Minimal counts: b-tilde_0(K_J) and the generators per degree, read
    off the generator list (one generator per component of K_J other than
    max(J)'s), gen H_1(K_J) from homology, and the relations per degree off
    the relation list (one per merged generating cycle).
    ``verify_presentation`` checks the generators against H-tilde_0 and the
    relations against H_1 by elimination."""

    b0_by_j: dict = field(default_factory=dict)
    h1_gens_by_j: dict = field(default_factory=dict)
    gen_count_by_degree: dict = field(default_factory=dict)
    rel_count_by_degree: dict = field(default_factory=dict)


@dataclass
class Presentation:
    complex: object
    ring: object
    grading: str  # "multi" | "z"
    generators: list
    relations: list
    counts_certificate: PresentationCertificate
    context: Context = field(compare=False, repr=False)


def build_presentation(k, ring=ZZ, grading="multi"):
    """Generators plus relations, multigraded or merged per total degree.

    Multigraded: one relation per minimal generator of H_1(K_J; ring) for
    each J (the relation count in multidegree (-|J|, 2J) is exactly
    gen H_1(K_J; ring)).  Z-graded: relations of equal total degree n are
    merged into gen(sum of H_1(K_J), |J| = n) linear combinations, found by
    Smith reduction of the block of invariant factors (this is what turns a
    Z/2- and a Z/3-relation in the same degree into a single Z/6 one).
    """
    if grading not in ("multi", "z"):
        raise ValueError("grading must be 'multi' or 'z'")
    ctx = _context(k)
    generators = gptw_generators(ctx, ring)
    cert = PresentationCertificate(
        b0_by_j=dict(Counter(g.j_set for g in generators)),
        gen_count_by_degree=dict(Counter(g.degree for g in generators)))

    # one block of (J, cycle, invariant factor) entries per J (multigraded)
    # or per |J| (z-graded); Smith reduction of the block's factors merges
    # its cycles, and each merged relation sums relation_for_cycle over J
    groups = {}
    for j_set in all_subsets(ctx.complex.m):
        if len(j_set) < 3:
            continue
        inv, cycles = ctx.homology(j_set, ring, 2)
        if inv.is_zero():
            continue
        cert.h1_gens_by_j[j_set] = inv.gen_count()
        key = j_set if grading == "multi" else len(j_set)
        groups.setdefault(key, []).extend(
            (j_set, kappa, factor)
            for factor, kappa in zip(inv.factors(), cycles))

    relations = []
    for entries in groups.values():
        size = len(entries)
        diag = ExactMatrix.zeros(size, size, ring)
        for t, (_, _, factor) in enumerate(entries):
            diag.data[t][t] = factor
        for vec in cokernel_invariants(diag).generators:
            relations.append(_merge_relations(ctx, ring, entries, vec))
    relations.sort(key=lambda r: (r.degree,
                                  sorted(_mask(j) for j, _ in r.parts)))
    cert.rel_count_by_degree = dict(Counter(r.degree for r in relations))
    return Presentation(complex=ctx.complex, ring=ring, grading=grading,
                        generators=generators, relations=relations,
                        counts_certificate=cert, context=ctx)


def _merge_relations(k, ring, entries, vec):
    """Relation for an integer combination of per-J generating cycles: the
    sum of the relations of its per-J cycles."""
    by_j = {}
    for coeff, (j_set, kappa, _) in zip(vec, entries):
        if ring.is_zero(coeff):
            continue
        acc = by_j.setdefault(j_set, {})
        for face, lam in kappa.terms:
            acc[face] = acc.get(face, 0) + coeff * lam
    rels = []
    for j_set in sorted(by_j, key=_mask):
        kappa = SimplicialCycle(j=j_set, dimension=1, terms=tuple(sorted(
            ring.settle(by_j[j_set]).items(), key=lambda t: sorted(t[0]))))
        rels.append(relation_for_cycle(k, kappa, ring, normalize_sign=False))
    if len(rels) == 1:
        return _normalize_sign(rels[0])
    poly = {}
    for rel in rels:
        accumulate(poly, rel.poly)
    return _normalize_sign(Relation(
        degree=rels[0].degree, poly=settle(poly, ring),
        parts=tuple(p for rel in rels for p in rel.parts),
        terms=tuple(t for rel in rels for t in rel.terms)))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    checks: list  # (name, ok, detail)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def summary(self):
        return "\n".join("%-24s %s  %s" % (name, "PASS" if ok else "FAIL",
                                           detail)
                         for name, ok, detail in self.checks)


def verify_presentation(k, presentation):
    """Oracle check of a presentation against k[K]^!.

    (1) generator values are the nested commutators they claim to be;
    (2) every rewrite_chat(J, i), |J| >= 2, evaluates to c(J\\i, u_i);
    (3) every relation polynomial evaluates to zero;
    (4) generator counts per J match the rank of H-tilde_0(K_J) by
        elimination, relation counts gen H_1(K_J) (per |J| when Z-graded);
    (5) for every nonempty J the Tor strand of multidegree (-|J|, 2J),
        read by ``koszul_invariants``, matches H-tilde(K_J) in every degree;
    (6) every bar cycle lifted from a generating cycle of H-tilde_0,
        H-tilde_1 or H-tilde_2 of some K_J is closed (``bar_cycle_closed``).
    (1)-(3) run in the squarefree model, symbols bound to its own
    ``commutator`` values and integer rewrites taken as they are; words
    leaving it must vanish in k[K]^! apart, and a symbol or ring the oracle
    cannot take fails the check.  (4)-(6) read one sweep over J of the face
    index.  Failures are reported, never raised.
    """
    ctx = presentation.context  # reused when built on k
    if ctx.complex != k:
        ctx = _context(k)
    ring = presentation.ring
    algebra, model = ctx.algebra(ring), ctx.model(ring)
    gens = gptw_generators(ctx, ring)
    assignment = {g.symbol: g.value for g in gens}  # for words off the model
    binding = {g.symbol: model.commutator(g.j_set - {g.i}, g.i) for g in gens}
    checks = []

    def evaluates_to(poly, target):
        try:
            value, rest = model.evaluate(poly, binding)
            return value == target and (not rest.terms or evaluate(
                rest, algebra, assignment).is_zero())
        except (RingMismatch, UnboundSymbol):
            return False

    bad = 0
    for g in presentation.generators:
        try:  # a value the model refuses is a mismatch too
            bad += not g.value or model.from_element(g.value) != \
                model.commutator(g.j_set - {g.i}, g.i)
        except (AlgebraMismatch, PreconditionViolated):
            bad += 1
    checks.append(("generator values", not bad,
                   "%d/%d match" % (len(presentation.generators) - bad,
                                    len(presentation.generators))))

    total = failed = 0
    for j_set in all_subsets(ctx.complex.m):
        if len(j_set) < 2:
            continue
        for i in sorted(j_set):
            total += 1
            if not evaluates_to(rewrite_chat(ctx, j_set, i),
                                model.commutator(j_set - {i}, i)):
                failed += 1
    checks.append(("rewriting soundness", failed == 0,
                   "%d/%d pairs (J,i) agree" % (total - failed, total)))

    rel_bad = sum(not evaluates_to(rel.poly, {})
                  for rel in presentation.relations)
    checks.append(("relations vanish", rel_bad == 0,
                   "%d/%d vanish in k[K]!" % (len(presentation.relations)
                                              - rel_bad,
                                              len(presentation.relations))))

    h0, h1, tor_rows, cycles_total, cycles_ok = {}, {}, [], 0, 0
    multi, index = presentation.grading == "multi", ctx.complex.index
    for j in all_subsets(ctx.complex.m)[1:]:  # every nonempty J
        simp = index.homology_invariants(j, ring, range(len(j) + 3))
        if simp[1].rank:  # H-tilde_0 by elimination, not by components
            h0[j] = simp[1].rank
        if not simp[2].is_zero():  # H_1 by J, or by |J| when Z-graded
            h1.setdefault(j if multi else len(j), []).append(simp[2])
        try:
            tor_rows.append(koszul_invariants(ctx.complex, j, ring) == simp)
        except ChainConditionViolated:  # the strand is not a complex
            tor_rows.append(False)
        for n in (1, 2, 3):  # lift cycles only where H_{n-1}(K_J) != 0
            if n < len(simp) and not simp[n].is_zero():
                for kappa in ctx.homology(j, ring, n)[1]:
                    cycles_total += 1
                    cycles_ok += bar_cycle_closed(kappa, model)

    gen_ok = Counter(g.j_set for g in presentation.generators) == h0
    rel_ok = Counter(rel.j_set if multi else rel.degree
                     for rel in presentation.relations) == \
        {key: direct_sum(invs).gen_count() for key, invs in h1.items()}
    checks.append(("counts vs certificate", gen_ok and rel_ok,
                   "generators %d, relations %d"
                   % (len(presentation.generators),
                      len(presentation.relations))))
    checks.append(("Tor strand cross-check", all(tor_rows),
                   "%d/%d subsets agree" % (sum(tor_rows), len(tor_rows))))
    checks.append(("bar cycles closed", cycles_ok == cycles_total,
                   "%d/%d generating cycles" % (cycles_ok, cycles_total)))
    return VerificationReport(checks=checks)


def is_free_loop_algebra(k, ring=ZZ):
    """True iff the loop homology algebra is free: H_1(K_J; ring) = 0
    for every J (no relations in any minimal presentation)."""
    k = _context(k).complex
    return all(reduced_homology_invariants(k, j_set, ring, 2).is_zero()
               for j_set in all_subsets(k.m) if len(j_set) >= 3)


# ---------------------------------------------------------------------------
# rendering and serialization
# ---------------------------------------------------------------------------

def _chat_text(ctx, ring, j_set, i):
    key = (ring.kind, ring.p, j_set, i)  # rendered once per context
    if key in ctx.chat_texts:
        return ctx.chat_texts[key]
    poly = rewrite_chat(ctx, j_set, i).convert_ring(ring)
    text = "(" + poly.render() + ")", False
    if len(poly.terms) == 1:
        ((word, coeff),) = poly.terms.items()
        if len(word) == 1 and coeff == ring.one():
            text = word[0].render(), False
        elif len(word) == 1 and coeff == ring.from_int(-1):
            text = word[0].render(), True
    ctx.chat_texts[key] = text
    return text


def render_relation(k, relation):
    """Commutator-shaped text of a relation over its own ring: a signed sum
    of brackets of rewritten generators; immediately-zero summands omitted."""
    ctx = _context(k)
    ring = relation.poly.ring
    bits = []
    for t in relation.terms:
        ca, flip_a = _chat_text(ctx, ring, t.a_set | {t.i}, t.i)
        cb, flip_b = _chat_text(ctx, ring, t.b_set | {t.j}, t.j)
        bits.append((ring.neg(t.coeff) if flip_a != flip_b else t.coeff,
                     "[%s,%s]" % (ca, cb)))
    text = render_sum(bits)
    return ("- " + text[1:] if text[0] == "-" else text) + " = 0"


def presentation_to_dict(presentation):
    """JSON-ready dictionary with deterministic ordering."""
    doc = presentation_head(presentation)
    doc["relations"] = rels = []
    for rel in presentation.relations:
        terms = rel.poly.terms
        word_terms = [{"coeff": str(terms[w]), "word": [s._text for s in w]}
                      for w in sorted(terms, key=word_sort_key)]
        rels.append(dict(relation_head(presentation.context, rel),
                         terms=word_terms))
    return doc


def relation_head(k, rel):
    """A relation's ``presentation_to_dict`` entry but its ``terms``."""
    return {
        "degree": rel.degree,
        "parts": [{
            "J": sorted(j_set),
            "cycle": [{"face": sorted(f), "coeff": str(c)}
                      for f, c in kappa.terms],
        } for j_set, kappa in rel.parts],
        "rendered": render_relation(k, rel),
    }


def presentation_head(presentation):
    """``presentation_to_dict`` but its ``relations``."""
    k = presentation.complex
    gens = []
    for g in presentation.generators:
        gens.append({
            "J": sorted(g.j_set),
            "i": g.i,
            "degree": g.degree,
            "symbol": g.symbol.render(),
            "value": g.value.render(),
        })
    cert = presentation.counts_certificate
    return {
        "m": k.m,
        "ring": repr(presentation.ring),
        "grading": presentation.grading,
        "generators": gens,
        "certificate": {
            "b0_by_J": [{"J": sorted(j), "b0": cert.b0_by_j[j]}
                        for j in sorted(cert.b0_by_j, key=_mask)],
            "h1_gens_by_J": [{"J": sorted(j), "gens": cert.h1_gens_by_j[j]}
                             for j in sorted(cert.h1_gens_by_j, key=_mask)],
            "generators_by_degree": {str(n): v for n, v in
                                     sorted(cert.gen_count_by_degree.items())},
            "relations_by_degree": {str(n): v for n, v in
                                    sorted(cert.rel_count_by_degree.items())},
        },
    }
