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

Squarefree model.  A word with distinct letters and support J induces an
orientation O of the non-edges of K_J; two words inducing O differ by swaps
of K-adjacent neighbours, so f_O = (-1)^inv(w) [w] depends on O alone
(Cartier-Foata 1969; Diekert-Rozenberg, The Book of Traces, 1995).  For
disjoint supports f_O1 f_O2 = s(A,B) f_(O1|O2|X(A,B)): X(A,B) orients each
non-edge {a<b}, a in A, b in B, from a to b, and s(A,B) is
(-1)^#{a in A, b in B : a > b}.  ``SquarefreeModel`` multiplies with one OR
and one sign per pair of terms; ``verify_presentation`` and the bar
cycles' check (``torbar.verify_bar_cycle``) work in it.  Free polynomials
are evaluated there and in k[K]^! by one walk over their sorted words that
keeps only the current word's prefix products.

Graded dimensions count the paths of the automaton of normal words, whose
state is the set of letters that may still be appended to the word.  The
model's supports and the automaton's states are vertex masks in the face
index's layout, bit v-1 for vertex v; the automaton steps on its neighbors.

Elements are immutable and hashable so they can serve as letters of bar
construction tensors downstream.
"""

from .errors import (
    AlgebraMismatch,
    NotHomogeneous,
    PreconditionViolated,
    RingMismatch,
    UnboundSymbol,
    VertexOutOfRange,
)
from .exactlin import ZZ
from .freealg import FreePolynomial, render_sum, word_sort_key
from .simplicial import _mask, _vertices, require_flag


class PCAlgebra:
    """k[K]^! for a flag complex K over a coefficient ring."""

    def __init__(self, complex_, ring=ZZ):
        require_flag(complex_)
        self.complex = complex_
        self.ring = ring
        self.m = complex_.m
        self.adjacent = complex_.adjacency
        self.letters = ["u%d" % v for v in range(self.m + 1)]  # for render
        self._cvalue_cache = {}  # terms only: an element points back here

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
        """Normal form of sign * word * letters for an already normal word;
        ``sign`` may be any coefficient, negated once per odd jump."""
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
        return self.element({(i,): 1})

    def element(self, word_to_coeff):
        """Build an element from a raw {word: coefficient} mapping."""
        ring = self.ring
        acc = {}
        for word, coeff in word_to_coeff.items():
            c = ring.from_int(coeff) if isinstance(coeff, int) else coeff
            nf = self.normalize(word)
            if nf is not None:
                sign, w = nf
                acc[w] = acc.get(w, 0) + sign * c
        return self._collect(acc)

    def _collect(self, acc):
        """Element from a {normal word: coefficient} dict summed with plain
        + and *."""
        return PCElement(self, tuple(sorted(self.ring.settle(acc).items())))

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

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Common word length; None for 0, NotHomogeneous if mixed."""
        lens = {len(w) for w, _ in self.terms}
        if len(lens) > 1:
            raise NotHomogeneous("mixed degrees in %r" % (self,))
        return lens.pop() if lens else None

    def __add__(self, other):
        self._check(other)
        acc = dict(self.terms)
        for w, c in other.terms:
            acc[w] = acc.get(w, 0) + c
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
        acc = {}
        for w1, c1 in self.terms:
            for w2, c2 in other.terms:
                nf = algebra._append(w1, c1 * c2, w2)
                if nf is not None:
                    c, w = nf
                    acc[w] = acc.get(w, 0) + c
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
        letter = self.algebra.letters.__getitem__
        return render_sum((c, "*".join(map(letter, w)) or "1")
                          for w, c in self.terms)

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# evaluation of free-algebra expressions
# ---------------------------------------------------------------------------

def evaluate(poly, algebra, assignment=None):
    """Image of a FreePolynomial under the ring map into k[K]^!.

    Atoms u_i go to the generators automatically; composite symbols must be
    bound in ``assignment`` (symbol -> PCElement) or UnboundSymbol is raised.
    Each distinct prefix is multiplied out once (``_word_values``).
    """
    acc = {}
    for _, coeff, value in _word_values(poly, algebra, algebra.one(),
                                        PCElement.__mul__, algebra.generator,
                                        assignment or {}):
        for w, c in value.terms:
            acc[w] = acc.get(w, 0) + coeff * c
    return algebra._collect(acc)


def _word_values(poly, algebra, one, mul, generator, binding):
    """Yield (word, coefficient, value) per word of ``poly``, a polynomial
    over the ring of ``algebra`` or over Z (taken through Z -> R): ``one``
    times ``generator(i)`` per u_i and ``binding[symbol]`` per composite.
    Sorted, the words that share a prefix are adjacent, so each distinct
    prefix is multiplied out once and only the current word's are kept.  A
    false value (zero, or None off the model) goes on unmultiplied, and the
    symbols after it are not looked up."""
    if poly.ring != algebra.ring and poly.ring != ZZ:
        raise RingMismatch("polynomial ring %r vs algebra ring %r"
                           % (poly.ring, algebra.ring))
    terms, chain, values = poly.terms, (), [one]  # the value of chain[:n] at n
    for word in sorted(terms, key=word_sort_key) if len(terms) > 1 else terms:
        n, top = 0, min(len(chain), len(word))
        while n < top and chain[n] is word[n]:
            n += 1
        del values[n + 1:]
        factor = values[-1]
        for sym in word[n:]:
            if factor:
                if sym.kind != "u" and sym not in binding:
                    raise UnboundSymbol("no value bound for %s" % sym.render())
                factor = mul(factor, generator(sym.i) if sym.kind == "u"
                             else binding[sym])
            values.append(factor)
        chain = word
        yield word, terms[word], factor


def commutator_value(algebra, prefix, i):
    """The value of c(prefix, u_i) in k[K]^!, memoized per algebra.

    The fold of ``freealg.nested_commutator``, bracketed in the algebra:
    with a = min(I) and y = c(I - a, u_i) (memoized, of degree |I|),
    c(I, u_i) = [u_a, y] = u_a y - (-1)^|I| y u_a.
    """
    key = (frozenset(prefix), i)
    cached = algebra._cvalue_cache.get(key)
    if cached is not None:
        return PCElement(algebra, cached)
    if key[0]:
        a = min(key[0])
        inner = commutator_value(algebra, key[0] - {a}, i)
        u_a = algebra.generator(a)
        left, right = u_a * inner, inner * u_a
        value = left - right if len(key[0]) % 2 == 0 else left + right
    else:
        value = algebra.generator(i)
    algebra._cvalue_cache[key] = value.terms
    return value


# ---------------------------------------------------------------------------
# the squarefree model
# ---------------------------------------------------------------------------

class SquarefreeModel:
    """k[K]^! in squarefree multidegrees, on signed acyclic orientations.

    An element is a dict {support: {orientation: coefficient}} with no zero
    coefficient or empty support.  Vertex v is bit v-1 of a support, as in
    the face index; non-edge {a<b} of K has one orientation bit, set when a
    comes before b.  The unit is the int 1 over every ring, so a Fraction
    enters only with a coefficient that carries one.
    """

    def __init__(self, algebra):
        self.algebra, self.p = algebra, algebra.ring.p  # p: None over Z, Q
        m, adj = algebra.m, algebra.adjacent
        self._bit = {pair: 1 << n for n, pair in enumerate(
            (a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)
            if b not in adj[a])}
        self._cross = {}  # (A, B) -> (X(A, B), s(A, B))
        self._cvalues = {}
        self._images = {}  # PCElement -> from_element

    def generator(self, i):
        return {1 << (i - 1): {0: 1}}

    def accumulate(self, acc, x, coeff=1):
        """acc += coeff * x in place; cancelled terms are dropped."""
        for support, terms in x.items():
            row = acc.setdefault(support, {})
            for o, c in terms.items():
                v = row.get(o, 0) + coeff * c
                row[o] = v % self.p if self.p else v
                if not row[o]:
                    del row[o]
            if not row:
                del acc[support]

    def _cross_of(self, a_mask, b_mask):
        pairs = [(a, b) for a in _vertices(a_mask) for b in _vertices(b_mask)]
        return self._cross.setdefault((a_mask, b_mask), (
            sum(self._bit.get(pair, 0) for pair in pairs),  # distinct bits
            -1 if sum(a > b for a, b in pairs) % 2 else 1))

    def mul(self, x, y):
        """x * y, or None if a support of x meets one of y."""
        out = {}
        for a, xa in x.items():
            for b, yb in y.items():
                if a & b:
                    return None
                bits, s = self._cross.get((a, b)) or self._cross_of(a, b)
                t = {o1 | o2 | bits: s * c1 * c2
                     for o1, c1 in xa.items() for o2, c2 in yb.items()}
                if self.p:
                    t = {o: c % self.p for o, c in t.items()}
                if a | b in out:
                    self.accumulate(out, {a | b: t})
                else:
                    out[a | b] = t
        return out

    def word(self, word):
        """(support, orientation, sign) of a word that repeats no letter:
        [w] = sign * f_O for the orientation O that w induces."""
        pairs = [(a, b) for n, a in enumerate(word) for b in word[n + 1:]]
        return (_mask(word),
                sum(self._bit.get(pair, 0) for pair in pairs),  # distinct bits
                -1 if sum(a > b for a, b in pairs) % 2 else 1)

    def from_element(self, element):
        """The image of a PCElement whose words repeat no letter, memoized:
        the sum of c * sign * f_O over its terms c * [w] (see ``word``)."""
        if element in self._images:  # a hit has an equal algebra
            return self._images[element]
        if element.algebra != self.algebra:
            raise AlgebraMismatch("element of another algebra")
        out = {}
        for word, c in element.terms:
            if len(set(word)) != len(word):
                raise PreconditionViolated("%r repeats a letter" % (word,))
            support, o, sign = self.word(word)
            self.accumulate(out, {support: {o: c}}, sign)
        return self._images.setdefault(element, out)

    def commutator(self, prefix, i):
        """c(prefix, u_i), by the recursion of ``commutator_value``."""
        key = (frozenset(prefix), i)
        if key not in self._cvalues:
            value = self.generator(i)
            if key[0]:
                a = min(key[0])
                inner = self.commutator(key[0] - {a}, i)
                value = self.mul(self.generator(a), inner)
                self.accumulate(value, self.mul(inner, self.generator(a)),
                                1 if len(key[0]) % 2 else -1)
            self._cvalues[key] = value
        return self._cvalues[key]

    def evaluate(self, poly, binding):
        """``evaluate`` with composite symbols bound to model elements; also
        returns the polynomial of the words that leave the model."""
        value, acc, rest = {}, {}, {}  # acc: plain + and *, reduced once
        for word, coeff, v in _word_values(
                poly, self.algebra, {0: {0: 1}},
                self.mul, self.generator, binding):
            if v is None:
                rest[word] = coeff
                continue
            for support, terms in v.items():
                row = acc.setdefault(support, {})
                for o, c in terms.items():
                    row[o] = row.get(o, 0) + coeff * c
        self.accumulate(value, acc)
        return value, FreePolynomial._wrap(poly.ring, rest)


# ---------------------------------------------------------------------------
# graded dimension counting
# ---------------------------------------------------------------------------

def graded_dimensions(algebra, max_degree):
    """Number of normal-form basis words in each degree 0..max_degree.

    Counted on the automaton state, the bitmask of appendable letters: after
    x, v is appendable iff v != x and either v is not K-adjacent to x, or
    x < v and v was appendable (``_append``'s backward scan passes x).
    """
    neighbors, full = algebra.complex.index.neighbors, (1 << algebra.m) - 1
    step = {}  # bit of x -> (letters freed by x, letters kept if allowed)
    for x in range(1, algebra.m + 1):
        near, bit = neighbors[x], 1 << (x - 1)
        step[bit] = (full & ~near & ~bit, near & -(bit << 1))
    counts = [1] + [0] * max_degree
    states = {full: 1}
    for degree in range(1, max_degree + 1):
        nxt = {}
        for state, n in states.items():
            for bit, (free, kept) in step.items():
                if state & bit:
                    s = free | (state & kept)
                    nxt[s] = nxt.get(s, 0) + n
        states = nxt
        counts[degree] = sum(nxt.values())
    return counts
