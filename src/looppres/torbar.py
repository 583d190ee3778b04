"""The Koszul-type complex Lambda[m] (x) k<K> and explicit bar cycles.

Basis elements are u_I (x) chi_alpha with I a subset of [m] and alpha a
multi-exponent whose support is a face of K; alpha is stored as a sorted
tuple of vertices with multiplicity.  Two differentials act here:

* ``dbar`` on Lambda[m] (x) k<K> computes Tor over the loop homology of the
  moment-angle complex; its multidegree-(n, -|J|, 2J) strand is spanned by
  u_{J \\ L} (x) chi_L over faces L of K_J, and its homology matches the
  reduced simplicial homology of K_J shifted by one.  ``strand_columns``
  writes the strand as sparse columns on face bitmasks, signs by popcount,
  and ``verify`` compares the two by universal coefficients.
* ``dhat`` is the resolution differential upstairs; its extra terms carry
  nested-commutator prefactors c(A, u_i) that land in the loop homology
  subalgebra of k[K]^!.

``bar_cycle`` builds, from a simplicial cycle in K_J, the explicit cycle in
the reduced bar construction whose letters are evaluated nested commutators;
``verify_bar_cycle`` applies the bar differential in the squarefree model of
k[K]^! (adjacent letters have disjoint supports) and checks the result
vanishes; ``bar_cycle_closed`` does both with the model's own letters.
"""

from functools import partial
from itertools import combinations, permutations

from .errors import FaceOutsideJ, NotACycle, PreconditionViolated
from .exactlin import (ZZ, column_homology_invariants,
                       column_homology_with_representatives)
from .freealg import koszul_theta, ordered_splits
from .pcalg import SquarefreeModel, commutator_value
from .simplicial import is_cycle

# ---------------------------------------------------------------------------
# basis bookkeeping
# ---------------------------------------------------------------------------


def alpha_from_face(face):
    return tuple(sorted(face))


def alpha_remove(alpha, i):
    out = list(alpha)
    out.remove(i)
    return tuple(out)


def check_basis_element(k, i_set, alpha):
    if not k.has_face(frozenset(alpha)):
        raise ValueError("supp(alpha)=%s is not a face"
                         % sorted(set(alpha)))
    if not all(1 <= v <= k.m for v in i_set):
        raise ValueError("I=%s outside [1..%d]" % (sorted(i_set), k.m))


def wedge_sign(i_set, i):
    """Sign of u_I ^ u_i as +-1, or 0 when i already occurs in I."""
    if i in i_set:
        return 0
    above = sum(1 for v in i_set if v > i)
    return -1 if above % 2 else 1


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def dbar(k, i_set, alpha):
    """dbar(u_I (x) chi_alpha) as {(I', alpha'): int coefficient}.

    (-1)^{|I|} sum over i in supp(alpha) of (u_I ^ u_i) (x) chi_{alpha-e_i}.
    """
    check_basis_element(k, i_set, alpha)
    lead = -1 if len(i_set) % 2 else 1
    out = {}
    for i in sorted(set(alpha)):
        ws = wedge_sign(i_set, i)
        if ws == 0:
            continue
        out[(i_set | {i}, alpha_remove(alpha, i))] = lead * ws  # one per i
    return out


def dbar_element(k, element):
    out = {}
    for (i_set, alpha), coeff in element.items():
        for key, c in dbar(k, i_set, alpha).items():
            out[key] = out.get(key, 0) + coeff * c
    return ZZ.settle(out)


def dhat(k, i_set, alpha):
    """dhat(1 (x) u_I (x) chi_alpha) with prefactors kept symbolic.

    Returns {(prefactor, I', alpha'): int} where prefactor is None for the
    unit (the dbar part, with i joining the exterior slot) or a pair
    (A, i) standing for the loop-homology element c(A, u_i):

        dhat = sum_i (-1)^{|I|} 1 (x) (u_I ^ u_i) (x) chi_{alpha-e_i}
             + sum_i sum_{I=A+B, max(A)>i} (-1)^{theta(A,B)+|A|}
               c(A,u_i) (x) u_B (x) chi_{alpha-e_i}.
    """
    check_basis_element(k, i_set, alpha)
    out = {}  # every (i, A) gives its own key
    lead = -1 if len(i_set) % 2 else 1
    for i in sorted(set(alpha)):
        smaller = alpha_remove(alpha, i)
        ws = wedge_sign(i_set, i)
        if ws:
            out[(None, i_set | {i}, smaller)] = lead * ws
        # partitions I = A + B with max(A) > i (A nonempty in particular)
        for a, b in ordered_splits(i_set, (i, None)):
            sign = (koszul_theta(a, b) + len(a)) % 2
            out[((tuple(sorted(a)), i), b, smaller)] = -1 if sign else 1
    return out


def dhat_augmented(k, i_set, alpha):
    """dhat followed by the augmentation killing c(A, u_i) prefactors."""
    return {(i2, a2): coeff for (pre, i2, a2), coeff
            in dhat(k, i_set, alpha).items() if pre is None}


def dhat_resolution(algebra, element):
    """dhat on loop-homology-coefficient elements of the resolution.

    ``element`` maps (I, alpha) to a homogeneous PCElement coefficient a;
    the differential follows d(a x) = (-1)^{deg a} a d(x) and multiplies the
    c(A, u_i) prefactors into the coefficient inside k[K]^!.
    """
    k = algebra.complex
    out = {}
    for (i_set, alpha), a in element.items():
        if a.is_zero():
            continue
        deg = a.degree()
        koszul = -1 if (deg or 0) % 2 else 1
        for (pre, i2, a2), coeff in dhat(k, i_set, alpha).items():
            value = a if pre is None else \
                a * commutator_value(algebra, frozenset(pre[0]), pre[1])
            if value.is_zero():
                continue
            term = value.scale(koszul * coeff)
            key = (i2, a2)
            out[key] = out[key] + term if key in out else term
    return {key: v for key, v in out.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# the map g from simplicial chains
# ---------------------------------------------------------------------------

def epsilon_sign(face, j_set):
    """epsilon(L, J) = (-1)^{sum over l in L of |J_{<l}|}."""
    total = sum(sum(1 for v in j_set if v < ell) for ell in face)
    return -1 if total % 2 else 1


def g_map(k, j_set, terms):
    """Image of a simplicial chain under g_J as {(I, alpha): coeff}.

    ``terms`` is an iterable of (face, coefficient); faces must be faces of
    K contained in J.  [L] goes to epsilon(L, J) u_{J \\ L} (x) chi_L.
    """
    j_set = frozenset(j_set)
    out = {}
    for face, coeff in terms:
        face = frozenset(face)
        if not face <= j_set:
            raise FaceOutsideJ("face %s not inside J=%s"
                               % (sorted(face), sorted(j_set)))
        if not k.has_face(face):
            raise FaceOutsideJ("%s is not a face of K" % sorted(face))
        key = (j_set - face, alpha_from_face(face))
        out[key] = out.get(key, 0) + epsilon_sign(face, j_set) * coeff
    return ZZ.settle(out)


# ---------------------------------------------------------------------------
# strand homology (the Tor cross-check)
# ---------------------------------------------------------------------------

def strand_columns(faces, j_set, sizes):
    """dbar from strand degree n to n-1 in multidegree 2J, by columns, for
    each n in ``sizes``.

    ``faces`` is the complex's FaceIndex (``k.index``); J is checked once.
    The basis u_{J\\L} (x) chi_L is keyed by the mask of L (bit v-1 for
    vertex v) over the faces L of K_J with |L| = n, and column L is
    {L - i: (-1)^{|J\\L|} (-1)^{#{v in J\\L : v > i}}} for i in L:
    ``dbar``'s Koszul sign, read off popcounts.
    """
    jmask = faces.mask(j_set)
    out = []
    for n in sizes:
        cols = {}
        for face in faces.masks[n] if 0 <= n < len(faces.masks) else ():
            if face & ~jmask:
                continue
            rest = jmask ^ face
            col = cols[face] = {}
            bits = face
            while bits:
                low = bits & -bits  # vertex i; -(low << 1) masks the v > i
                bits ^= low
                odd = (rest.bit_count() + (rest & -(low << 1)).bit_count()) & 1
                col[face ^ low] = -1 if odd else 1
        out.append(cols)
    return out


def koszul_homology(k, j_set, ring=ZZ, degree=1):
    """Homology of the (degree, -|J|, 2J) strand of (Lambda[m] (x) k<K>, dbar)
    with lifted cycles.

    Must agree with the reduced homology of K_J one dimension down; ``verify``
    reads rank and torsion by universal coefficients (``koszul_invariants``).
    """
    return column_homology_with_representatives(*strand_columns(
        k.index, j_set, (degree - 1, degree, degree + 1)), ring)


def koszul_invariants(k, j_set, ring=ZZ):
    """``koszul_homology`` in degrees 0..|J|+1 without cycles: the strand's
    integer columns, read by ``column_homology_invariants``."""
    return column_homology_invariants(
        strand_columns(k.index, j_set, range(len(j_set) + 3)), ring)


# ---------------------------------------------------------------------------
# bar construction cycles
# ---------------------------------------------------------------------------

class BarElement:
    """Linear combination of tensors of positive-degree k[K]^! elements."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {}
        for tensor, coeff in (terms or {}).items():
            self.add_term(tensor, coeff)

    def add_term(self, tensor, coeff):
        ring = self.algebra.ring
        if any(a.is_zero() for a in tensor):
            return
        cur = ring.add(self.terms.get(tensor, ring.zero()), coeff)
        if ring.is_zero(cur):
            self.terms.pop(tensor, None)
        else:
            self.terms[tensor] = cur

    def __eq__(self, other):
        return (isinstance(other, BarElement)
                and self.algebra == other.algebra
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for tensor, coeff in self.terms.items():
            body = "[" + "|".join(a.render() for a in tensor) + "]"
            bits.append("%s*%s" % (coeff, body))
        return " + ".join(bits)


def _bar_terms(algebra, kappa, letter):
    """(letters, coefficient) pairs of ``bar_cycle``'s formula, the letter
    c(J_t, u_{i_t}) given by ``letter(J_t, i_t)``; NotACycle unless kappa is
    a cycle of faces of K with dimension + 1 vertices each."""
    k, ring = algebra.complex, algebra.ring
    if not is_cycle(k, kappa, ring):
        raise NotACycle("chain has nonzero boundary")
    j_set = frozenset(kappa.j)
    for face, lam in kappa.terms:
        if len(face) != kappa.dimension + 1 or not k.has_face(face):
            raise NotACycle("%s is not a %d-face of K"
                            % (sorted(face), kappa.dimension))
        base = lam if epsilon_sign(face, j_set) == 1 else ring.neg(lam)
        for order in permutations(sorted(face)):
            for blocks in ordered_splits(j_set - face, order):
                theta_total = sum(koszul_theta(a, b)
                                  for a, b in combinations(blocks, 2))
                yield (tuple(letter(b, i) for b, i in zip(blocks, order)),
                       base if theta_total % 2 == 0 else ring.neg(base))


def bar_cycle(algebra, kappa):
    """The explicit bar-construction cycle attached to a simplicial cycle.

    kappa is a SimplicialCycle of dimension n-1 supported in K_J; the result
    lives in bar degree n with multidegree (-|J|, 2J) and letters
    c(J_t, u_{i_t}) evaluated in k[K]^!:

        sum over faces I (coefficient lambda_I), orderings (i_1..i_n) of I,
        and partitions J \\ I = J_1 + ... + J_n with max(J_t) > i_t of
        epsilon(I,J) lambda_I (-1)^{sum_{t1<t2} theta(J_{t1}, J_{t2})}
        [c(J_1,u_{i_1}) | ... | c(J_n,u_{i_n})].
    """
    out = BarElement(algebra)
    for letters, coeff in _bar_terms(algebra, kappa,
                                     partial(commutator_value, algebra)):
        out.add_term(letters, coeff)
    return out


def _bar_d(xs, coeff, model, tensor=None):
    """d[x_1|...|x_n] on model letters as (letters, coeff) pairs; where the
    supports of x_i and x_{i+1} meet, x_i-bar * x_{i+1} is taken on the
    normal forms of ``tensor``, or refused if there is none."""
    bars = []
    for i in range(len(xs) - 1):  # a-bar = (-1)^(1+|support|) a
        bars.append({s: t if s.bit_count() % 2 else {
            o: -c for o, c in t.items()} for s, t in xs[i].items()})
        merged = model.mul(bars[i], xs[i + 1])
        if merged is None:
            if tensor is None:
                raise PreconditionViolated("adjacent letters meet")
            merged = tensor[i].overline() * tensor[i + 1]
        yield tuple(bars[:i]) + (merged,) + tuple(xs[i + 2:]), coeff


def bar_differential(element, model):
    """d of the reduced bar construction, products taken in k[K]^!:

        d([a_1|...|a_n]) = sum_{i=1}^{n-1}
            [a_1-bar|...|a_{i-1}-bar| a_i-bar * a_{i+1} |a_{i+2}|...|a_n],

    as (letters, coefficient) pairs for ``bar_canonical``.  Letters go to the
    squarefree model by its memoized ``from_element`` (their words must
    repeat no vertex, as in every ``bar_cycle``) and multiply there; a
    product whose supports meet, as in [u1|u1], is taken on normal forms.
    """
    return [d for tensor, coeff in element.terms.items() if len(tensor) > 1
            for d in _bar_d([model.from_element(a) for a in tensor], coeff,
                            model, tensor)]  # d[a] = 0


def bar_cycle_closed(kappa, model):
    """``verify_bar_cycle(bar_cycle(model.algebra, kappa), model)``, letters
    read from the memoized ``model.commutator``; adjacent letters of a bar
    cycle have disjoint supports, so supports that meet raise."""
    return not bar_canonical([d for x in _bar_terms(
        model.algebra, kappa, model.commutator) for d in _bar_d(*x, model)],
        model)


def _basis(x, model):
    """(key, coefficient) pairs of a letter in a basis of k[K]^!: a model
    element's (support, orientation) pairs; a PCElement's normal words, those
    that repeat no vertex taken to the model's pairs (one that repeats a
    vertex has at least three letters, so is never a pair)."""
    if isinstance(x, dict):
        return [((s, o), c) for s, t in x.items() for o, c in t.items()]
    out = []
    for w, c in x.terms:
        if len(set(w)) < len(w):
            out.append((w, c))
        else:
            support, o, sign = model.word(w)
            out.append(((support, o), sign * c))
    return out


def bar_canonical(terms, model):
    """Canonical form in I(k[K]^!)^{(x) n} of the sum of c [x_1|...|x_n]
    over the (letters, c) of ``terms``, as {(key_1, ..., key_n): coeff}.

    The tensor product is multilinear, so a formal combination of letter
    tuples is not a normal form: [z1] + [z2] vanishes whenever z1 + z2 = 0
    as algebra elements even though the tuples differ.  So every letter is
    expanded in a basis (``_basis``), summed with plain + and *, settled
    once.
    """
    out = {}
    for letters, coeff in terms:
        partial = [((), coeff)]
        for x in letters:
            partial = [(keys + (key,), c * cx) for keys, c in partial
                       for key, cx in _basis(x, model)]
        for keys, c in partial:
            out[keys] = out.get(keys, 0) + c
    return model.algebra.ring.settle(out)


def verify_bar_cycle(element, model=None):
    """True iff the bar differential of the element vanishes in k[K]^!;
    ``model`` is the squarefree model of its algebra (a new one if None)."""
    if model is None:
        model = SquarefreeModel(element.algebra)
    return not bar_canonical(bar_differential(element, model), model)
