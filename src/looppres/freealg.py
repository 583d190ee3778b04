"""Free graded associative algebra on abstract generator symbols.

Symbols come in two flavours: the degree-1 atoms u_i with multidegree
(-1, 2e_i), and composite generators indexed by a pair (J, i) standing for
the nested commutator c(J \\ i, u_i), of total degree |J| and multidegree
(-|J|, 2J).  Symbols are interned, so their equality is identity and a
word hashes at C speed.  Words are plain tuples of symbols, polynomials are
word -> coefficient maps (long sums run in place, through ``accumulate``),
and nothing is ever rewritten: equality in this layer is literal
coefficient equality, which is what makes it a trustworthy substrate for
the sign-identity test suite.

Sign conventions (total degree drives all Koszul signs):

* overline(a) = (-1)^(1+deg a) * a
* [x, y] = x*y - (-1)^(deg x * deg y) * y*x
* c(I, x) = [u_{i_1}, [u_{i_2}, ... [u_{i_k}, x] ...]] for I = {i_1<...<i_k}
* theta(A, B) = #{(a, b) in A x B : a > b}
"""

from itertools import compress, product

from .errors import NotHomogeneous, PreconditionViolated, RingMismatch
from .exactlin import ZZ


# ---------------------------------------------------------------------------
# generator symbols and words
# ---------------------------------------------------------------------------

class GeneratorSymbol:
    """The atom u_i or the composite generator for (J, i), interned."""

    __slots__ = ("kind", "i", "j_set", "_key", "_text")
    _interned = {}  # sort key -> the one symbol with that key

    def __new__(cls, kind, i, j_set=None):
        if kind == "u":
            key, j_set = (0, (i,), i), None
        elif kind == "g":
            j_set = frozenset(j_set)
            if i not in j_set:
                raise PreconditionViolated("generator index %d not in J=%s"
                                           % (i, sorted(j_set)))
            key = (1, tuple(sorted(j_set)), i)
        else:
            raise ValueError("unknown symbol kind %r" % (kind,))
        sym = cls._interned.get(key)
        if sym is None:
            sym = object.__new__(cls)
            sym.kind, sym.i, sym.j_set, sym._key = kind, i, j_set, key
            sym._text = ("u%d" % i if kind == "u" else
                         render_nested_commutator(sorted(j_set - {i}), i))
            # setdefault: of two threads racing here, both get one object
            sym = cls._interned.setdefault(key, sym)
        return sym

    def __reduce__(self):
        return GeneratorSymbol, (self.kind, self.i, self.j_set)

    @property
    def total_degree(self):
        return 1 if self.kind == "u" else len(self.j_set)

    @property
    def hom_degree(self):
        return -1 if self.kind == "u" else -len(self.j_set)

    def multidegree(self):
        """Exponent vector of the Z_{>=0}^m part, as a sorted tuple of
        (vertex, exponent)."""
        if self.kind == "u":
            return ((self.i, 2),)
        return tuple((v, 2) for v in sorted(self.j_set))

    def sort_key(self):
        return self._key

    def render(self):
        return self._text

    def __repr__(self):
        return self.render()


def atom_u(i):
    return GeneratorSymbol("u", i)


def gptw_symbol(j_set, i):
    return GeneratorSymbol("g", i, j_set)


def render_nested_commutator(prefix, i):
    """Text like ``[u3,[u4,u1]]`` for c({3,4}, u_1)."""
    out = "u%d" % i
    for v in reversed(sorted(prefix)):
        out = "[u%d,%s]" % (v, out)
    return out


def word_sort_key(word):
    return tuple(s.sort_key() for s in word)


def word_total_degree(word):
    return sum(s.total_degree for s in word)


def word_multidegree(word):
    acc = {}
    for s in word:
        for v, e in s.multidegree():
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class FreePolynomial:
    """Finite linear combination of words over a coefficient ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring=ZZ, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                if not ring.is_zero(coeff):
                    self.terms[word] = coeff

    # -- constructors --
    @classmethod
    def zero(cls, ring=ZZ):
        return cls(ring)

    @classmethod
    def unit(cls, ring=ZZ):
        return cls(ring, {(): ring.one()})

    @classmethod
    def monomial(cls, word, coeff=1, ring=ZZ):
        c = ring.from_int(coeff) if isinstance(coeff, int) else coeff
        return cls(ring, {tuple(word): c})

    @classmethod
    def generator(cls, symbol, ring=ZZ):
        return cls.monomial((symbol,), 1, ring)

    @classmethod
    def _wrap(cls, ring, terms):  # raw constructor: terms holds no zero
        poly = object.__new__(cls)
        poly.ring, poly.terms = ring, terms
        return poly

    # -- ring sanity --
    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("polynomials over different rings")

    # -- arithmetic --
    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        accumulate(out, other)
        return FreePolynomial._wrap(self.ring, out)

    def __neg__(self):
        ring = self.ring
        return FreePolynomial._wrap(ring, {w: ring.neg(c)
                                           for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        ring = self.ring
        c = ring.from_int(coeff) if isinstance(coeff, int) else coeff
        if ring.is_zero(c):
            return FreePolynomial(ring)
        return FreePolynomial._wrap(ring, {w: ring.mul(c, x)
                                           for w, x in self.terms.items()})

    def __rmul__(self, coeff):
        if isinstance(coeff, int):
            return self.scale(coeff)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        ring = self.ring
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                v = ring.add(out.get(w, ring.zero()), ring.mul(c1, c2))
                if ring.is_zero(v):
                    out.pop(w, None)
                else:
                    out[w] = v
        return FreePolynomial._wrap(ring, out)

    def __eq__(self, other):
        return (isinstance(other, FreePolynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(),
                                             key=lambda t: word_sort_key(t[0])))))

    def is_zero(self):
        return not self.terms

    # -- grading --
    def total_degree(self):
        """Total degree if homogeneous, else NotHomogeneous."""
        degs = {word_total_degree(w) for w in self.terms}
        if len(degs) > 1:
            raise NotHomogeneous("mixed total degrees %s" % sorted(degs))
        return degs.pop() if degs else None

    def multidegree(self):
        """Common multidegree if multihomogeneous, else NotHomogeneous."""
        degs = {word_multidegree(w) for w in self.terms}
        if len(degs) > 1:
            raise NotHomogeneous("mixed multidegrees")
        return degs.pop() if degs else None

    def convert_ring(self, ring):
        if ring == self.ring:
            return self
        if self.ring != ZZ:
            raise RingMismatch("can only convert integer polynomials")
        out = {}
        for w, c in self.terms.items():
            v = ring.from_int(c)
            if not ring.is_zero(v):
                out[w] = v
        return FreePolynomial(ring, out)

    def leading_word(self):
        if not self.terms:
            return None
        return min(self.terms, key=word_sort_key)

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=word_sort_key):
            c = self.terms[w]
            body = "*".join(s.render() for s in w) if w else "1"
            parts.append(_render_term(c, body))
        text = parts[0] + "".join(
            " %s %s" % (p[0], p[1:]) if p[0] in "+-" else " + " + p
            for p in parts[1:])
        return text

    def __repr__(self):
        return self.render()


def _render_term(coeff, body):
    c = str(coeff)
    if c == "1":
        return body
    if c == "-1":
        return "-" + body
    return "%s*%s" % (c, body)


def accumulate(acc, poly, coeff=1):
    """acc += coeff * poly in place on a word -> coefficient dict over
    poly.ring, in time linear in poly; cancelled words are dropped."""
    ring = poly.ring
    c = ring.from_int(coeff) if isinstance(coeff, int) else coeff
    unit = c == ring.one()
    zero = ring.zero()
    for w, x in poly.terms.items():
        v = ring.add(acc.get(w, zero), x if unit else ring.mul(c, x))
        if ring.is_zero(v):
            acc.pop(w, None)
        else:
            acc[w] = v


# ---------------------------------------------------------------------------
# graded operations
# ---------------------------------------------------------------------------

def overline(p):
    """(-1)^(1 + deg p) * p for a homogeneous p."""
    d = p.total_degree()
    if d is None:
        return p
    return p if (1 + d) % 2 == 0 else -p


def graded_commutator(x, y):
    """[x, y] = xy - (-1)^(deg x deg y) yx on homogeneous arguments."""
    dx = x.total_degree()
    dy = y.total_degree()
    xy = x * y
    yx = y * x
    if dx is None or dy is None:
        return xy - yx  # one side is zero anyway
    if (dx * dy) % 2 == 0:
        return xy - yx
    return xy + yx


def u_word(subset, ring=ZZ):
    """The monomial u_{i_1} ... u_{i_k} for subset = {i_1 < ... < i_k}."""
    return FreePolynomial.monomial(tuple(atom_u(i) for i in sorted(subset)),
                                   1, ring)


def nested_commutator(prefix, x):
    """c(I, x): fold [u_i, -] over I = {a_1 < ... < a_k} right-to-left."""
    out = x
    for v in reversed(sorted(prefix)):
        out = graded_commutator(FreePolynomial.generator(atom_u(v), x.ring),
                                out)
    return out


def koszul_theta(a_set, b_set):
    """Number of inverted pairs between two vertex sets."""
    return sum(1 for a in a_set for b in b_set if a > b)


def ordered_splits(items, bounds):
    """Ordered partitions of a vertex set into len(bounds) labelled blocks.

    Yields tuples of frozensets, one per bound.  Block t must be nonempty
    with max > bounds[t]; a bound of None leaves block t free (possibly
    empty).  Labellings run like numbers whose lowest digit is the smallest
    vertex, so for two blocks the first block runs through the bitmasks
    0, 1, 2, ... (bit t for the t-th smallest vertex) and the second block
    is the rest.
    """
    items = sorted(items, reverse=True)
    last = len(bounds) - 1
    full = frozenset(items)
    for labels in product(range(last + 1), repeat=len(items)):
        blocks = []
        rest = full
        for t, bound in enumerate(bounds):
            if t == last:
                block = rest
            else:
                block = frozenset(compress(items,
                                           map((last - t).__eq__, labels)))
                rest = rest - block
            if bound is not None and (not block or max(block) <= bound):
                break
            blocks.append(block)
        else:
            yield tuple(blocks)


# ---------------------------------------------------------------------------
# the identity toolkit (regrouping and rearrangement formulas)
# ---------------------------------------------------------------------------

def expand_uI_x(i_set, x):
    """u-hat_I * x regrouped as sum of c(A, x) u-hat_B over partitions.

    RHS: sum_{I = A + B} (-1)^(theta(A,B) + deg(x)|B|) c(A, x) u-hat_B.
    """
    dx = x.total_degree()
    if dx is None:
        return FreePolynomial.zero(x.ring)
    out = {}
    for a, b in ordered_splits(i_set, (None, None)):
        sign = (koszul_theta(a, b) + dx * len(b)) % 2
        term = nested_commutator(a, x) * u_word(b, x.ring)
        accumulate(out, term, -1 if sign else 1)
    return FreePolynomial._wrap(x.ring, out)


def expand_uI_uj(i_set, j, ring=ZZ):
    """u-hat_I * u_j regrouped with the max(A) > j constraint.

    RHS: sum_{I = A+B, max(A) > j} (-1)^(theta(A,B)+|B|) c(A, u_j) u-hat_B
    plus the boundary term (-1)^(|I_{>j}|) u-hat_{I+j} (or, when j in I,
    the word with the honest square u_j^2 left in place).
    """
    i_set = frozenset(i_set)
    uj = FreePolynomial.generator(atom_u(j), ring)
    out = {}
    for a, b in ordered_splits(i_set, (j, None)):
        sign = (koszul_theta(a, b) + len(b)) % 2
        term = nested_commutator(a, uj) * u_word(b, ring)
        accumulate(out, term, -1 if sign else 1)
    above = sum(1 for v in i_set if v > j)
    if j not in i_set:
        tail = u_word(i_set | {j}, ring)
    else:
        below = sorted(v for v in i_set if v < j)
        word = tuple(atom_u(v) for v in below) + (atom_u(j), atom_u(j)) + \
            tuple(atom_u(v) for v in sorted(i_set) if v > j)
        tail = FreePolynomial.monomial(word, 1, ring)
    accumulate(out, tail, -1 if above % 2 else 1)
    return FreePolynomial._wrap(ring, out)


def expand_c_of_bracket(i_set, x, y):
    """c(I, [x, y]) = sum_{I=A+B} (-1)^(theta(A,B)+deg(x)|B|) [c(A,x), c(B,y)]."""
    dx = x.total_degree()
    if dx is None:
        return FreePolynomial.zero(x.ring)
    out = {}
    for a, b in ordered_splits(i_set, (None, None)):
        sign = (koszul_theta(a, b) + dx * len(b)) % 2
        term = graded_commutator(nested_commutator(a, x),
                                 nested_commutator(b, y))
        accumulate(out, term, -1 if sign else 1)
    return FreePolynomial._wrap(x.ring, out)


def rearrangement_identity_rhs(j_set, i, j, ring=ZZ):
    """Right side of the rearrangement identity for c(J \\ ij, [u_i, u_j]).

    Needs i < j, both in J, and J_{>j} nonempty.  Returns

        (-1)^|J_{>j}| c(J\\i, u_i) - (-1)^|J_{>i}| c(J\\j, u_j)
        + sum over J\\ij = A+B with A_{>i}, B_{>j} nonempty of
          (-1)^(theta(A,B)+|B|) [c(A, u_i), c(B, u_j)].
    """
    j_set = frozenset(j_set)
    if not (i in j_set and j in j_set and i < j):
        raise PreconditionViolated("need i < j inside J")
    above_j = [v for v in j_set if v > j]
    if not above_j:
        raise PreconditionViolated("J_{>j} must be nonempty")
    above_i = sum(1 for v in j_set if v > i)
    ui = FreePolynomial.generator(atom_u(i), ring)
    uj = FreePolynomial.generator(atom_u(j), ring)
    first = nested_commutator(j_set - {i}, ui)
    second = nested_commutator(j_set - {j}, uj)
    out = {}
    accumulate(out, first, -1 if len(above_j) % 2 else 1)
    accumulate(out, second, 1 if above_i % 2 else -1)
    for a, b in ordered_splits(j_set - {i, j}, (i, j)):
        sign = (koszul_theta(a, b) + len(b)) % 2
        term = graded_commutator(nested_commutator(a, ui),
                                 nested_commutator(b, uj))
        accumulate(out, term, -1 if sign else 1)
    return FreePolynomial._wrap(ring, out)


def rearrangement_identity_lhs(j_set, i, j, ring=ZZ):
    """Left side c(J \\ ij, [u_i, u_j]) of the same identity."""
    j_set = frozenset(j_set)
    bracket = graded_commutator(FreePolynomial.generator(atom_u(i), ring),
                                FreePolynomial.generator(atom_u(j), ring))
    return nested_commutator(j_set - {i, j}, bracket)
