"""The Koszul-type complex Lambda[m] (x) k<K> and explicit bar cycles.

Basis elements are u_I (x) chi_alpha with I a subset of [m] and alpha a
multi-exponent whose support is a face of K; alpha is stored as a sorted
tuple of vertices with multiplicity.  Two differentials act here:

* ``dbar`` on Lambda[m] (x) k<K> computes Tor over the loop homology of the
  moment-angle complex; its multidegree-(n, -|J|, 2J) strand is spanned by
  u_{J \\ L} (x) chi_L over faces L of K_J, and its homology matches the
  reduced simplicial homology of K_J shifted by one.
* ``dhat`` is the resolution differential upstairs; its extra terms carry
  nested-commutator prefactors c(A, u_i) that land in the loop homology
  subalgebra of k[K]^!.

``bar_cycle`` builds, from a simplicial cycle in K_J, the explicit cycle in
the reduced bar construction whose letters are evaluated nested commutators;
``verify_bar_cycle`` applies the bar differential with products taken in
k[K]^! and checks the result vanishes.
"""

from itertools import permutations

from .errors import FaceOutsideJ, NotACycle
from .exactlin import ExactMatrix, ZZ, homology_with_representatives
from .freealg import koszul_theta, ordered_splits
from .pcalg import commutator_value
from .simplicial import faces_within, is_cycle

# ---------------------------------------------------------------------------
# basis bookkeeping
# ---------------------------------------------------------------------------


def alpha_from_face(face):
    return tuple(sorted(face))


def alpha_support(alpha):
    return frozenset(alpha)


def alpha_remove(alpha, i):
    out = list(alpha)
    out.remove(i)
    return tuple(out)


def check_basis_element(k, i_set, alpha):
    if not k.has_face(alpha_support(alpha)):
        raise ValueError("supp(alpha)=%s is not a face"
                         % sorted(alpha_support(alpha)))
    if not all(1 <= v <= k.m for v in i_set):
        raise ValueError("I=%s outside [1..%d]" % (sorted(i_set), k.m))


def wedge_sign(i_set, i):
    """Sign of u_I ^ u_i as +-1, or 0 when i already occurs in I."""
    if i in i_set:
        return 0
    above = sum(1 for v in i_set if v > i)
    return -1 if above % 2 else 1


def _acc(d, key, val):
    cur = d.get(key, 0) + val
    if cur:
        d[key] = cur
    else:
        d.pop(key, None)


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
    for i in sorted(alpha_support(alpha)):
        ws = wedge_sign(i_set, i)
        if ws == 0:
            continue
        key = (i_set | {i}, alpha_remove(alpha, i))
        _acc(out, key, lead * ws)
    return out


def dbar_element(k, element):
    out = {}
    for (i_set, alpha), coeff in element.items():
        for key, c in dbar(k, i_set, alpha).items():
            _acc(out, key, coeff * c)
    return out


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
    out = {}
    lead = -1 if len(i_set) % 2 else 1
    for i in sorted(alpha_support(alpha)):
        smaller = alpha_remove(alpha, i)
        ws = wedge_sign(i_set, i)
        if ws:
            _acc(out, (None, i_set | {i}, smaller), lead * ws)
        # partitions I = A + B with max(A) > i (A nonempty in particular)
        for a, b in ordered_splits(i_set, (i, None)):
            sign = (koszul_theta(a, b) + len(a)) % 2
            key = ((tuple(sorted(a)), i), b, smaller)
            _acc(out, key, -1 if sign else 1)
    return out


def dhat_augmented(k, i_set, alpha):
    """dhat followed by the augmentation killing c(A, u_i) prefactors."""
    out = {}
    for (pre, i2, a2), coeff in dhat(k, i_set, alpha).items():
        if pre is None:
            _acc(out, (i2, a2), coeff)
    return out


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
            cur = out.get(key)
            cur = term if cur is None else cur + term
            if cur.is_zero():
                out.pop(key, None)
            else:
                out[key] = cur
    return out


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
        sign = epsilon_sign(face, j_set)
        cur = out.get(key, 0) + (coeff if sign == 1 else -coeff)
        if cur:
            out[key] = cur
        else:
            out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# strand homology (the Tor cross-check)
# ---------------------------------------------------------------------------

def strand_basis(k, j_set, n):
    """Faces L of K_J with |L| = n, indexing u_{J\\L} (x) chi_L."""
    return faces_within(k, j_set, n)


def strand_matrix(k, j_set, n, ring=ZZ):
    """Matrix of dbar from strand degree n to n-1 in multidegree 2J."""
    j_set = frozenset(j_set)
    src = strand_basis(k, j_set, n)
    dst = strand_basis(k, j_set, n - 1)
    dst_index = {f: i for i, f in enumerate(dst)}
    mat = ExactMatrix.zeros(len(dst), len(src), ring)
    for col, face in enumerate(src):
        image = dbar(k, j_set - face, alpha_from_face(face))
        for (i2, a2), coeff in image.items():
            row = dst_index[frozenset(a2)]
            mat.data[row][col] = ring.add(mat.data[row][col],
                                          ring.from_int(coeff))
    return mat


def koszul_homology(k, j_set, ring=ZZ, degree=1):
    """Homology of the (degree, -|J|, 2J) strand of (Lambda[m] (x) k<K>, dbar).

    Must agree with the reduced homology of K_J one dimension down; this is
    the Tor cross-check exercised by the acceptance suite.
    """
    d1 = strand_matrix(k, j_set, degree, ring)
    d2 = strand_matrix(k, j_set, degree + 1, ring)
    return homology_with_representatives(d1, d2, ring)


# ---------------------------------------------------------------------------
# bar construction cycles
# ---------------------------------------------------------------------------

class BarElement:
    """Linear combination of tensors of positive-degree k[K]^! elements."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            ring = algebra.ring
            for tensor, coeff in terms.items():
                if not ring.is_zero(coeff) and not any(
                        a.is_zero() for a in tensor):
                    self.terms[tensor] = coeff

    def add_term(self, tensor, coeff):
        ring = self.algebra.ring
        if any(a.is_zero() for a in tensor):
            return
        cur = ring.add(self.terms.get(tensor, ring.zero()), coeff)
        if ring.is_zero(cur):
            self.terms.pop(tensor, None)
        else:
            self.terms[tensor] = cur

    def is_zero(self):
        return not self.terms

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
    k = algebra.complex
    ring = algebra.ring
    if not is_cycle(k, kappa, ring):
        raise NotACycle("chain has nonzero boundary")
    j_set = frozenset(kappa.j)
    out = BarElement(algebra)
    for face, lam in kappa.terms:
        n = len(face)
        rest = j_set - face
        eps = epsilon_sign(face, j_set)
        base = lam if eps == 1 else ring.neg(lam)
        for order in permutations(sorted(face)):
            for blocks in ordered_splits(rest, order):
                theta_total = sum(
                    koszul_theta(blocks[t1], blocks[t2])
                    for t1 in range(n) for t2 in range(t1 + 1, n))
                letters = tuple(
                    commutator_value(algebra, b, i)
                    for b, i in zip(blocks, order))
                coeff = base if theta_total % 2 == 0 else ring.neg(base)
                out.add_term(letters, coeff)
    return out


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


def bar_differential(element):
    """d of the reduced bar construction, products taken in k[K]^!.

    d([a_1|...|a_n]) = sum_{i=1}^{n-1}
        [a_1-bar|...|a_{i-1}-bar| a_i-bar * a_{i+1} |a_{i+2}|...|a_n].
    """
    algebra = element.algebra
    out = BarElement(algebra)
    for tensor, coeff in element.terms.items():
        n = len(tensor)
        for i in range(n - 1):
            merged = tensor[i].overline() * tensor[i + 1]
            if merged.is_zero():
                continue
            new_tensor = tuple(
                tensor[t].overline() for t in range(i)) + (merged,) + \
                tensor[i + 2:]
            out.add_term(new_tensor, coeff)
    return out


def bar_canonical(element):
    """Canonical form in the word-tensor basis of I(k[K]^!)^{(x) n}.

    The tensor product is multilinear, so a formal combination of letter
    tuples is not a normal form: [z1] + [z2] vanishes whenever z1 + z2 = 0
    as algebra elements even though the tuples differ.  Expanding every
    letter into its normal words gives an honest basis representation:
    {(word_1, ..., word_n): coefficient}.
    """
    ring = element.algebra.ring
    out = {}
    for tensor, coeff in element.terms.items():
        partial = [((), coeff)]
        for letter in tensor:
            nxt = []
            for words, c in partial:
                for w, cw in letter.terms:
                    nxt.append((words + (w,), ring.mul(c, cw)))
            partial = nxt
        for words, c in partial:
            cur = ring.add(out.get(words, ring.zero()), c)
            if ring.is_zero(cur):
                out.pop(words, None)
            else:
                out[words] = cur
    return out


def verify_bar_cycle(element):
    """True iff the bar differential of the element vanishes in k[K]^!."""
    return not bar_canonical(bar_differential(element))
