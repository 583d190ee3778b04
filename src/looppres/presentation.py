"""Minimal presentations of the loop homology algebra of a moment-angle
complex over a flag complex.

Generators: one nested commutator c(J \\ i, u_i) for every subset J and
every i in Theta(J) (the smallest vertices of path components of K_J other
than the component of max(J)).  Relations: one per generating 1-cycle of
H_1(K_J), synthesized from partitions of J minus an edge.

The rewriting engine expresses an arbitrary c(J \\ i, u_i) as a
non-commutative polynomial in the generators.  Recursion scheme, with
rank(i) the graph distance in K_J to max(J) (same component) or to the
smallest vertex of i's component (different component):

1. i = max(J): c(J\\i, u_i) = c(J\\j, u_j) for j = max(J \\ i).
2. same component as max(J): rank 1 means {i, max(J)} is an edge and the
   element is 0; otherwise pick the first edge {i, j} of the BFS-first
   shortest path towards max(J) and solve the rearrangement identity for
   c(J\\i, u_i), rewriting every lower-degree commutator recursively.
3. different component: rank 0 means i is a generator index; otherwise
   reduce the rank exactly as in case 2, walking towards min(component).

Results are memoized per complex and are ring-independent (all coefficients
are +-1 sums over Z); callers convert to their coefficient ring.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .errors import NotACycle, PreconditionViolated
from .exactlin import ExactMatrix, ZZ, cokernel_invariants
from .freealg import (
    FreePolynomial,
    accumulate,
    gptw_symbol,
    graded_commutator,
    koszul_theta,
    ordered_splits,
    word_sort_key,
)
from .pcalg import PCAlgebra, commutator_value, evaluate
from .simplicial import (
    SimplicialCycle,
    all_subsets,
    is_cycle,
    path_components,
    reduced_betti0,
    reduced_homology,
    require_flag,
    theta_set,
)


def pc_algebra(k, ring=ZZ):
    """The one k[K]^! over ``ring``, kept on the complex beside its rewrite
    memo, so it lives exactly as long as the complex; setdefault hands
    racing threads the same algebra."""
    algebra = k._algebras.get(ring)
    if algebra is None:
        algebra = k._algebras.setdefault(ring, PCAlgebra(k, ring))
    return algebra


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


def _subset_mask(j_set):
    return sum(1 << (v - 1) for v in j_set)


def gptw_generators(k, ring=ZZ):
    """All generators, ordered by (|J|, J bitmask, i); values in k[K]^!."""
    require_flag(k)
    algebra = pc_algebra(k, ring)
    out = []
    for j_set in all_subsets(k.m):
        if len(j_set) < 2:
            continue
        for i in sorted(theta_set(k, j_set)):
            value = commutator_value(algebra, j_set - {i}, i)
            assert not value.is_zero(), (sorted(j_set), i)
            out.append(GptwGenerator(j_set=j_set, i=i,
                                     symbol=gptw_symbol(j_set, i),
                                     value=value))
    out.sort(key=lambda g: (len(g.j_set), _subset_mask(g.j_set), g.i))
    return out


def gptw_assignment(k, ring=ZZ):
    """Symbol -> value binding for evaluating rewritten polynomials."""
    return {g.symbol: g.value for g in gptw_generators(k, ring)}


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

_IN_PROGRESS = threading.local()  # .calls: this thread's (id(k), J, i) set


def rewrite_chat(k, j_set, i):
    """c(J \\ i, u_i) as an integer polynomial in generator symbols.

    Memoized on the complex; calls in progress are tracked per thread, so
    concurrent calls are safe.  Requires |J| >= 2: for J = {i} the element
    u_i does not lie in the loop homology subalgebra at all.
    """
    require_flag(k)
    j_set = frozenset(j_set)
    if i not in j_set:
        raise PreconditionViolated("i=%d not in J=%s" % (i, sorted(j_set)))
    if len(j_set) < 2:
        raise PreconditionViolated("rewriting needs |J| >= 2")
    memo = k._rewrite_memo
    key = (j_set, i)
    if key in memo:
        return memo[key]
    in_progress = vars(_IN_PROGRESS).setdefault("calls", set())
    call = (id(k), j_set, i)
    if call in in_progress:
        raise AssertionError("rewrite recursion cycle at %r" % (key,))
    in_progress.add(call)
    try:
        result = _rewrite_uncached(k, j_set, i)
    finally:
        in_progress.discard(call)
    memo[key] = result
    return result


def _rewrite_uncached(k, j_set, i):
    top = max(j_set)
    if i == top:
        return rewrite_chat(k, j_set, max(j_set - {i}))
    comp = next(c for c in path_components(k, j_set) if i in c)
    if top in comp:
        if top in k.adjacency[i]:
            return FreePolynomial.zero(ZZ)
        neighbor = _first_edge_of_shortest_path(k, j_set, i, top)
        return _solve_rearrangement(k, j_set, i, neighbor)
    anchor = min(comp)
    if i == anchor:
        return FreePolynomial.generator(gptw_symbol(j_set, i), ZZ)
    neighbor = _first_edge_of_shortest_path(k, j_set, i, anchor)
    return _solve_rearrangement(k, j_set, i, neighbor)


def _first_edge_of_shortest_path(k, j_set, source, target):
    """Other endpoint of the first edge on the BFS-first shortest path.

    BFS from the source explores neighbors in increasing vertex order; the
    first discovered shortest path to the target is read off via parents.
    """
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
    if target not in parent:
        raise AssertionError("no path from %d to %d inside %s"
                             % (source, target, sorted(j_set)))
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path[1]


def _solve_rearrangement(k, j_set, i, neighbor):
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
        term = graded_commutator(rewrite_chat(k, a_set | {a}, a),
                                 rewrite_chat(k, b_set | {b}, b))
        accumulate(out, term, -tail if sign else tail)
    accumulate(out, rewrite_chat(k, j_set, other), lead)
    return FreePolynomial(ZZ, out)


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorTerm:
    """One [chat(A, u_i), chat(B, u_j)] summand of a relation.

    ``alive`` is False for the summands that vanish on sight because
    max(A) is K-adjacent to i (or max(B) to j); the classical m-gon term
    counts (7+10+4 = 21 for the hexagon) enumerate the alive ones.
    """

    j_set: frozenset
    i: int
    j: int
    a_set: frozenset
    b_set: frozenset
    coeff: object
    alive: bool


@dataclass(frozen=True)
class Relation:
    degree: int
    poly: object  # FreePolynomial in generator symbols
    parts: tuple  # ((j_set, SimplicialCycle), ...)
    terms: tuple  # CommutatorTerm metadata

    @property
    def j_set(self):
        return self.parts[0][0] if len(self.parts) == 1 else None

    def alive_terms_by_edge(self):
        out = {}
        for t in self.terms:
            if t.alive:
                key = (t.i, t.j)
                out[key] = out.get(key, 0) + 1
        return out


def _relation_data(k, ring, kappa):
    """Raw (poly, terms) for one 1-cycle, before sign normalization."""
    j_set = frozenset(kappa.j)
    if kappa.dimension != 1 or any(len(f) != 2 for f, _ in kappa.terms):
        raise NotACycle("relation synthesis needs a chain of edges")
    if not is_cycle(k, kappa, ring):
        raise NotACycle("chain has nonzero boundary")
    poly = {}
    terms = []
    for face, lam in kappa.terms:
        i, j = sorted(face)
        if not k.has_face(face):
            raise NotACycle("edge %s not in K" % sorted(face))
        eps = (-1) ** (sum(1 for v in j_set if v < i)
                       + sum(1 for v in j_set if v < j))
        base = ring.mul(lam, ring.from_int(eps))
        for a_set, b_set in ordered_splits(j_set - face, (i, j)):
            sign = (koszul_theta(a_set, b_set) + len(a_set)) % 2
            coeff = base if sign == 0 else ring.neg(base)
            alive = (i not in k.adjacency[max(a_set)]
                     and j not in k.adjacency[max(b_set)])
            terms.append(CommutatorTerm(j_set=j_set, i=i, j=j, a_set=a_set,
                                        b_set=b_set, coeff=coeff,
                                        alive=alive))
            ca = rewrite_chat(k, a_set | {i}, i).convert_ring(ring)
            cb = rewrite_chat(k, b_set | {j}, j).convert_ring(ring)
            accumulate(poly, graded_commutator(ca, cb), coeff)
    return FreePolynomial(ring, poly), terms


def _normalize_sign(ring, poly, terms):
    """Fix the unit ambiguity: lex-least word gets a positive coefficient
    (over Z and Q) or coefficient 1 (over F_p)."""
    lead = poly.leading_word()
    if lead is None:
        return poly, terms
    c = poly.terms[lead]
    if ring.kind == "Fp":
        unit = ring.inv(c)
        if unit == ring.one():
            return poly, terms
    elif c < 0:
        unit = ring.from_int(-1)
    else:
        return poly, terms
    poly = poly.scale(unit)
    terms = tuple(CommutatorTerm(j_set=t.j_set, i=t.i, j=t.j, a_set=t.a_set,
                                 b_set=t.b_set,
                                 coeff=ring.mul(unit, t.coeff),
                                 alive=t.alive)
                  for t in terms)
    return poly, terms


def relation_for_cycle(k, kappa, ring=ZZ, normalize_sign=True):
    """The defining relation attached to a simplicial 1-cycle in K_J.

    Sum over edges {i<j} of the cycle and partitions J\\{i,j} = A+B with
    max(A) > i, max(B) > j of

        (-1)^{|J_<i|+|J_<j|} lambda_{ij} (-1)^{theta(A,B)+|A|}
        [chat(A, u_i), chat(B, u_j)],

    each chat taken from the rewriting engine.  The polynomial evaluates to
    zero in k[K]^!.
    """
    require_flag(k)
    poly, terms = _relation_data(k, ring, kappa)
    if normalize_sign:
        poly, terms = _normalize_sign(ring, poly, terms)
    return Relation(degree=len(kappa.j), poly=poly,
                    parts=((frozenset(kappa.j), kappa),), terms=tuple(terms))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

@dataclass
class PresentationCertificate:
    """Expected minimal counts, computed straight from homology."""

    b0_by_j: dict = field(default_factory=dict)
    h1_gens_by_j: dict = field(default_factory=dict)
    gen_count_by_degree: dict = field(default_factory=dict)
    rel_count_by_degree: dict = field(default_factory=dict)

    def total_generators(self):
        return sum(self.gen_count_by_degree.values())


@dataclass
class Presentation:
    complex: object
    ring: object
    grading: str  # "multi" | "z"
    generators: list
    relations: list
    counts_certificate: PresentationCertificate


def _certificate(k):
    cert = PresentationCertificate()
    for j_set in all_subsets(k.m):
        if not j_set:
            continue
        b0 = reduced_betti0(k, j_set)
        if b0:
            cert.b0_by_j[j_set] = b0
            n = len(j_set)
            cert.gen_count_by_degree[n] = \
                cert.gen_count_by_degree.get(n, 0) + b0
    return cert


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
    require_flag(k)
    generators = gptw_generators(k, ring)
    cert = _certificate(k)

    per_j = []
    for j_set in all_subsets(k.m):
        if len(j_set) < 3:
            continue
        inv, cycles = reduced_homology(k, j_set, ring, degree=2)
        if cycles:
            per_j.append((j_set, inv, cycles))
            cert.h1_gens_by_j[j_set] = inv.gen_count()

    relations = []
    if grading == "multi":
        for j_set, inv, cycles in per_j:
            for kappa in cycles:
                relations.append(relation_for_cycle(k, kappa, ring))
            n = len(j_set)
            cert.rel_count_by_degree[n] = \
                cert.rel_count_by_degree.get(n, 0) + inv.gen_count()
    else:
        by_degree = {}
        for j_set, inv, cycles in per_j:
            by_degree.setdefault(len(j_set), []).append((j_set, inv, cycles))
        for n in sorted(by_degree):
            entries = []  # (j_set, cycle, invariant factor)
            for j_set, inv, cycles in by_degree[n]:
                for factor, kappa in zip(inv.factors(), cycles):
                    entries.append((j_set, kappa, factor))
            size = len(entries)
            diag = ExactMatrix.zeros(size, size, ring)
            for t, (_, _, factor) in enumerate(entries):
                diag.data[t][t] = factor
            merged = cokernel_invariants(diag)
            cert.rel_count_by_degree[n] = merged.gen_count()
            for vec in merged.generators:
                relations.append(_merge_relations(k, ring, entries, vec))
    relations.sort(key=lambda r: (r.degree,
                                  sorted(_subset_mask(j) for j, _ in r.parts)))
    assert len(generators) == cert.total_generators()
    return Presentation(complex=k, ring=ring, grading=grading,
                        generators=generators, relations=relations,
                        counts_certificate=cert)


def _merge_relations(k, ring, entries, vec):
    """Relation for an integer combination of per-J generating cycles."""
    by_j = {}
    for coeff, (j_set, kappa, _) in zip(vec, entries):
        if ring.is_zero(coeff):
            continue
        acc = by_j.setdefault(j_set, {})
        for face, lam in kappa.terms:
            val = ring.add(acc.get(face, ring.zero()), ring.mul(coeff, lam))
            if ring.is_zero(val):
                acc.pop(face, None)
            else:
                acc[face] = val
    poly = {}
    parts = []
    terms = []
    degree = None
    for j_set in sorted(by_j, key=_subset_mask):
        faces = by_j[j_set]
        kappa = SimplicialCycle(j=j_set, dimension=1,
                                terms=tuple(sorted(faces.items(),
                                                   key=lambda t: sorted(t[0]))))
        parts.append((j_set, kappa))
        p, t = _relation_data(k, ring, kappa)
        accumulate(poly, p)
        terms.extend(t)
        degree = len(j_set)
    poly, terms = _normalize_sign(ring, FreePolynomial(ring, poly), terms)
    return Relation(degree=degree, poly=poly, parts=tuple(parts),
                    terms=tuple(terms))


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
    (4) generator and relation counts match the homology certificate.
    Failures are reported, never raised.
    """
    ring = presentation.ring
    algebra = pc_algebra(k, ring)
    assignment = gptw_assignment(k, ring)
    checks = []

    bad = [g for g in presentation.generators
           if g.value != commutator_value(algebra, g.j_set - {g.i}, g.i)
           or g.value.is_zero()]
    checks.append(("generator values", not bad,
                   "%d/%d match" % (len(presentation.generators) - len(bad),
                                    len(presentation.generators))))

    total = failed = 0
    for j_set in all_subsets(k.m):
        if len(j_set) < 2:
            continue
        for i in sorted(j_set):
            total += 1
            value = evaluate(rewrite_chat(k, j_set, i).convert_ring(ring),
                             algebra, assignment)
            if value != commutator_value(algebra, j_set - {i}, i):
                failed += 1
    checks.append(("rewriting soundness", failed == 0,
                   "%d/%d pairs (J,i) agree" % (total - failed, total)))

    rel_bad = 0
    for rel in presentation.relations:
        if not evaluate(rel.poly, algebra, assignment).is_zero():
            rel_bad += 1
    checks.append(("relations vanish", rel_bad == 0,
                   "%d/%d vanish in k[K]!" % (len(presentation.relations)
                                              - rel_bad,
                                              len(presentation.relations))))

    cert = presentation.counts_certificate
    by_j = {}
    for g in presentation.generators:
        by_j[g.j_set] = by_j.get(g.j_set, 0) + 1
    gen_ok = by_j == cert.b0_by_j and \
        len(presentation.generators) == cert.total_generators()
    rel_by_degree = {}
    for rel in presentation.relations:
        rel_by_degree[rel.degree] = rel_by_degree.get(rel.degree, 0) + 1
    rel_ok = rel_by_degree == cert.rel_count_by_degree
    checks.append(("counts vs certificate", gen_ok and rel_ok,
                   "generators %d, relations %d"
                   % (len(presentation.generators),
                      len(presentation.relations))))
    return VerificationReport(checks=checks)


def is_free_loop_algebra(k, ring=ZZ):
    """True iff the loop homology algebra is free: H_1(K_J; ring) = 0
    for every J (no relations in any minimal presentation)."""
    require_flag(k)
    for j_set in all_subsets(k.m):
        if len(j_set) < 3:
            continue
        inv, _ = reduced_homology(k, j_set, ring, degree=2)
        if not inv.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# rendering and serialization
# ---------------------------------------------------------------------------

def _chat_text(k, ring, j_set, i):
    poly = rewrite_chat(k, j_set, i).convert_ring(ring)
    if len(poly.terms) == 1:
        ((word, coeff),) = poly.terms.items()
        if len(word) == 1 and coeff == ring.one():
            return word[0].render(), False
        if len(word) == 1 and coeff == ring.from_int(-1):
            return word[0].render(), True
    return "(" + poly.render() + ")", False


def render_relation(k, relation, ring=None):
    """Commutator-shaped text of a relation: a signed sum of brackets of
    rewritten generators; immediately-zero summands omitted."""
    ring = ring or ZZ
    bits = []
    for t in relation.terms:
        if not t.alive:
            continue
        ca, flip_a = _chat_text(k, ring, t.a_set | {t.i}, t.i)
        cb, flip_b = _chat_text(k, ring, t.b_set | {t.j}, t.j)
        coeff = t.coeff
        if flip_a:
            coeff = ring.neg(coeff)
        if flip_b:
            coeff = ring.neg(coeff)
        body = "[%s,%s]" % (ca, cb)
        c = str(coeff)
        if c == "1":
            bits.append("+ " + body)
        elif c == "-1":
            bits.append("- " + body)
        else:
            bits.append("+ %s*%s" % (c, body) if not c.startswith("-")
                        else "- %s*%s" % (c[1:], body))
    if not bits:
        return "0 = 0"
    text = " ".join(bits)
    if text.startswith("+ "):
        text = text[2:]
    return text + " = 0"


def presentation_to_dict(presentation):
    """JSON-ready dictionary with deterministic ordering."""
    k = presentation.complex
    ring = presentation.ring
    gens = []
    for g in presentation.generators:
        gens.append({
            "J": sorted(g.j_set),
            "i": g.i,
            "degree": g.degree,
            "symbol": g.symbol.render(),
            "value": g.value.render(),
        })
    rels = []
    for rel in presentation.relations:
        word_terms = []
        for word in sorted(rel.poly.terms, key=word_sort_key):
            word_terms.append({
                "coeff": str(rel.poly.terms[word]),
                "word": [s.render() for s in word],
            })
        rels.append({
            "degree": rel.degree,
            "parts": [{
                "J": sorted(j_set),
                "cycle": [{"face": sorted(f), "coeff": str(c)}
                          for f, c in kappa.terms],
            } for j_set, kappa in rel.parts],
            "rendered": render_relation(k, rel, ring),
            "terms": word_terms,
        })
    cert = presentation.counts_certificate
    return {
        "m": k.m,
        "ring": repr(ring),
        "grading": presentation.grading,
        "generators": gens,
        "relations": rels,
        "certificate": {
            "b0_by_J": [{"J": sorted(j), "b0": v}
                        for j, v in sorted(cert.b0_by_j.items(),
                                           key=lambda t: (_subset_mask(t[0])))],
            "h1_gens_by_J": [{"J": sorted(j), "gens": v}
                             for j, v in sorted(cert.h1_gens_by_j.items(),
                                                key=lambda t:
                                                (_subset_mask(t[0])))],
            "generators_by_degree": {str(n): v for n, v in
                                     sorted(cert.gen_count_by_degree.items())},
            "relations_by_degree": {str(n): v for n, v in
                                    sorted(cert.rel_count_by_degree.items())},
        },
    }
