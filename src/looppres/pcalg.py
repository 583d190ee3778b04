"""The partially commutative algebra attached to a flag complex.

T(u_1, ..., u_m) modulo u_i^2 = 0 and u_i u_j + u_j u_i = 0 for every edge
{i, j} of K.  Monomials form a signed trace monoid: adjacent letters that
span an edge of K may be swapped at the cost of a sign, and equal letters
annihilate once they can be brought together.  Every nonzero monomial class
therefore has a canonical representative; we use the lexicographically least
word of the class.

Normal form.  Naive rewriting ("swap adjacent decreasing K-adjacent pairs")
is not confluent: with letters k > j > i and edges {j,k}, {i,j} only, the
words (j,k,i) and (k,i,j) are both locally stuck yet equal up to sign.  The
lex-least representative is instead built one letter at a time (Anisimov-
Knuth): to append x to a normal word, scan back over its suffix of letters
K-adjacent to x.  Meeting x itself makes the product zero; the first letter
not adjacent to x ends the scan; x goes in just before the leftmost scanned
letter larger than x (at the end if there is none), and the sign flips once
for each letter x jumps.

Elements are immutable and hashable so they can serve as letters of bar
construction tensors downstream.
"""

from .errors import (
    AlgebraMismatch,
    NotHomogeneous,
    RingMismatch,
    UnboundSymbol,
    VertexOutOfRange,
)
from .exactlin import ZZ
from .simplicial import require_flag


class PCAlgebra:
    """k[K]^! for a flag complex K over a coefficient ring."""

    def __init__(self, complex_, ring=ZZ):
        require_flag(complex_)
        self.complex = complex_
        self.ring = ring
        self.m = complex_.m
        self.adjacent = complex_.adjacency
        self._gen_cache = {}
        self._cvalue_cache = {}

    # -- normal form ------------------------------------------------------
    def normalize(self, word):
        """Canonical form of a monomial: None if zero, else (sign, word).

        The sign is +-1 as a plain int; the word is a tuple of vertices,
        built by appending the letters one at a time (see ``_append``).
        """
        for v in word:
            if not (1 <= v <= self.m):
                raise VertexOutOfRange("vertex %r not in [1..%d]" % (v, self.m))
        return self._append((), 1, word)

    def _append(self, word, sign, letters):
        """Normal form of sign * word * letters for an already normal word."""
        adj = self.adjacent
        out = list(word)
        for x in letters:
            ax = adj[x]
            end = at = len(out)
            for pos in range(end - 1, -1, -1):
                y = out[pos]
                if y == x:
                    return None
                if y not in ax:
                    break
                if y > x:
                    at = pos
            if (end - at) % 2:
                sign = -sign
            out.insert(at, x)
        return sign, tuple(out)

    # -- element constructors ----------------------------------------------
    def zero(self):
        return PCElement(self, ())

    def one(self):
        return PCElement(self, (((), self.ring.one()),))

    def generator(self, i):
        if i not in self._gen_cache:
            self._gen_cache[i] = self.element({(i,): 1})
        return self._gen_cache[i]

    def element(self, word_to_coeff):
        """Build an element from a raw {word: coefficient} mapping."""
        ring = self.ring
        acc = {}
        for word, coeff in word_to_coeff.items():
            c = ring.from_int(coeff) if isinstance(coeff, int) else coeff
            if ring.is_zero(c):
                continue
            nf = self.normalize(word)
            if nf is None:
                continue
            sign, w = nf
            acc[w] = ring.add(acc.get(w, ring.zero()),
                              c if sign == 1 else ring.neg(c))
        return self._collect(acc)

    def _collect(self, acc):
        """Element from a {normal word: coefficient} dict, zero sums dropped."""
        return PCElement(self, tuple(sorted(
            (w, c) for w, c in acc.items() if not self.ring.is_zero(c))))

    def __eq__(self, other):
        return (isinstance(other, PCAlgebra)
                and self.complex == other.complex and self.ring == other.ring)

    def __hash__(self):
        return hash((self.complex, self.ring))

    def __repr__(self):
        return "PCAlgebra(m=%d, ring=%r)" % (self.m, self.ring)


class PCElement:
    """Normal-form element of k[K]^!; immutable and hashable."""

    __slots__ = ("algebra", "terms", "_hash")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms  # sorted tuple of (word, coeff), all normal words
        self._hash = None

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch("elements of different algebras")

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Common word length; None for 0, NotHomogeneous if mixed."""
        lens = {len(w) for w, _ in self.terms}
        if len(lens) > 1:
            raise NotHomogeneous("mixed degrees in %r" % (self,))
        return lens.pop() if lens else None

    def __add__(self, other):
        self._check(other)
        ring = self.algebra.ring
        acc = dict(self.terms)
        for w, c in other.terms:
            acc[w] = ring.add(acc.get(w, ring.zero()), c)
        return self.algebra._collect(acc)

    def __neg__(self):
        ring = self.algebra.ring
        return PCElement(self.algebra,
                         tuple((w, ring.neg(c)) for w, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        ring = self.algebra.ring
        c = ring.from_int(coeff) if isinstance(coeff, int) else coeff
        if ring.is_zero(c):
            return self.algebra.zero()
        return PCElement(self.algebra,
                         tuple((w, ring.mul(c, x)) for w, x in self.terms))

    def __rmul__(self, coeff):
        if isinstance(coeff, int):
            return self.scale(coeff)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        algebra = self.algebra
        ring = algebra.ring
        acc = {}
        zero = ring.zero()
        for w1, c1 in self.terms:
            for w2, c2 in other.terms:
                nf = algebra._append(w1, 1, w2)
                if nf is None:
                    continue
                sign, w = nf
                c = ring.mul(c1, c2)
                acc[w] = ring.add(acc.get(w, zero),
                                  c if sign == 1 else ring.neg(c))
        return algebra._collect(acc)

    def overline(self):
        """(-1)^(1+deg) scaling, defined on homogeneous elements."""
        d = self.degree()
        if d is None:
            return self
        return self if (1 + d) % 2 == 0 else -self

    def __eq__(self, other):
        return (isinstance(other, PCElement) and self.algebra == other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.terms:
            body = "*".join("u%d" % v for v in w) if w else "1"
            c_str = str(c)
            if c_str == "1":
                parts.append(body)
            elif c_str == "-1":
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c_str, body))
        return parts[0] + "".join(
            " %s %s" % (p[0], p[1:]) if p[0] in "+-" else " + " + p
            for p in parts[1:])

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# evaluation of free-algebra expressions
# ---------------------------------------------------------------------------

def evaluate(poly, algebra, assignment=None):
    """Image of a FreePolynomial under the ring map into k[K]^!.

    Atoms u_i go to the generators automatically; composite symbols must be
    bound in ``assignment`` (symbol -> PCElement) or UnboundSymbol is raised.
    Within one call each proper prefix is multiplied out once and kept, so
    words sharing a prefix share its product; a zero prefix ends the word.
    """
    if poly.ring != algebra.ring:
        raise RingMismatch("polynomial ring %r vs algebra ring %r"
                           % (poly.ring, algebra.ring))
    assignment = assignment or {}
    ring = algebra.ring
    prefixes = {(): algebra.one()}

    def value(word):
        if word in prefixes:
            return prefixes[word]
        factor = prefixes[word[:-1]] = value(word[:-1])
        sym = word[-1]
        if factor.is_zero():
            return factor
        if sym.kind == "u":
            return factor * algebra.generator(sym.i)
        if sym not in assignment:
            raise UnboundSymbol("no value bound for %s" % sym.render())
        return factor * assignment[sym]

    acc = {}
    zero = ring.zero()
    for word, coeff in poly.terms.items():
        for w, c in value(word).terms:
            acc[w] = ring.add(acc.get(w, zero), ring.mul(coeff, c))
    prefixes.clear()  # value() refers to itself: free now, not at next GC
    return algebra._collect(acc)


def commutator_value(algebra, prefix, i):
    """The value of c(prefix, u_i) in k[K]^!, memoized per algebra.

    The fold of ``freealg.nested_commutator``, bracketed in the algebra:
    with a = min(I) and y = c(I - a, u_i) (memoized, of degree |I|),
    c(I, u_i) = [u_a, y] = u_a y - (-1)^|I| y u_a.
    """
    key = (frozenset(prefix), i)
    cached = algebra._cvalue_cache.get(key)
    if cached is not None:
        return cached
    if key[0]:
        a = min(key[0])
        inner = commutator_value(algebra, key[0] - {a}, i)
        u_a = algebra.generator(a)
        left, right = u_a * inner, inner * u_a
        value = left - right if len(key[0]) % 2 == 0 else left + right
    else:
        value = algebra.generator(i)
    algebra._cvalue_cache[key] = value
    return value


# ---------------------------------------------------------------------------
# graded dimension counting
# ---------------------------------------------------------------------------

def graded_dimensions(algebra, max_degree):
    """Number of normal-form basis words in each degree 0..max_degree.

    Depth-first extension of normal words: appending v to a normal word w
    keeps it normal iff scanning backwards over the K-adjacent suffix never
    meets a letter equal to v (zero) or larger than v (not lex-least).
    """
    adj = algebra.adjacent
    m = algebra.m
    counts = [0] * (max_degree + 1)
    counts[0] = 1

    def extends(word, v):
        av = adj[v]
        for w in reversed(word):
            if w == v:
                return False
            if w not in av:
                return True
            if w > v:
                return False
        return True

    def walk(word):
        depth = len(word)
        counts[depth] += 1
        if depth == max_degree:
            return
        for v in range(1, m + 1):
            if extends(word, v):
                walk(word + (v,))

    if max_degree > 0:
        for v in range(1, m + 1):
            walk((v,))
    return counts
