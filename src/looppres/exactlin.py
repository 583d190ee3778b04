"""Exact linear algebra over Z, Q and Z/p.

Everything here is exact: integer matrices use Python's arbitrary-precision
ints, rational ones use ``fractions.Fraction``, and Z/p works with reduced
residues.  Homology of a two-term complex ``ker d1 / im d2`` with explicit
generator vectors rests on one set of elimination steps that carry both
transforms and their inverses, under two pivot rules: Smith normal form over
Z and Gauss-Jordan over a field.  It runs two eliminations: one of d1, whose
V^-1 gives kernel coordinates, and one of the coordinates of im d2.
Invariant factors need only the Smith diagonal and build no transforms:
``column_invariant_factors`` eliminates on sparse integer columns
{row: entry}, and ``column_homology_invariants`` reads an integer complex's
homology off them (``check_chain_condition``, ``universal_coefficients``).
Dense inputs (``invariant_factors``, ``chain_homology_invariants``) are
turned into columns first, so both share one check and one elimination.
Invariant factors follow the divisibility chain d_1 | d_2 | ... with unit
factors dropped, so a finitely generated module is recorded as
(rank, torsion factors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ChainConditionViolated, RingMismatch


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

class CoefficientRing:
    """One of Z, Q, or the prime field F_p.

    Elements are plain ints (Z, F_p) or Fractions (Q); the ring object just
    supplies the arithmetic and normalization conventions.
    """

    def __init__(self, kind, p=None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError("unknown ring kind: %r" % (kind,))
        if kind == "Fp":
            if type(p) is int and p >= 2 ** 40:
                raise ValueError("F_p needs p < 2^40, got %d" % p)
            if type(p) is not int or not _is_prime(p):
                raise ValueError("PrimeField needs a prime int p, got %r" % (p,))
        elif p is not None:
            raise ValueError("p only makes sense for PrimeField")
        self.kind = kind
        self.p = p

    # -- constants and conversions --
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def from_int(self, n):
        if self.kind == "Q":
            return Fraction(n)
        if self.kind == "Fp":
            return n % self.p
        return n

    # -- arithmetic --
    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def is_zero(self, a):
        return a == 0

    def settle(self, acc):
        """A dict summed with plain + and *, as ring elements: reduced mod p
        over F_p, zeros dropped."""
        p = self.p
        if p:
            return {k: r for k, c in acc.items() if (r := c % p)}
        return {k: c for k, c in acc.items() if c}

    def is_unit(self, a):
        if self.kind == "Z":
            return a in (1, -1)
        return a != 0

    def inv(self, a):
        if self.kind == "Q":
            return Fraction(1) / a
        if self.kind == "Fp":
            if a % self.p == 0:
                raise ZeroDivisionError("0 has no inverse in F%d" % self.p)
            return pow(a, self.p - 2, self.p)
        if a in (1, -1):
            return a
        raise ValueError("%r is not a unit in Z" % (a,))

    def is_field(self):
        return self.kind != "Z"

    # -- identity/equality --
    def __eq__(self, other):
        return (isinstance(other, CoefficientRing)
                and self.kind == other.kind and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "F%d" % self.p if self.kind == "Fp" else self.kind


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


ZZ = CoefficientRing("Z")
QQ = CoefficientRing("Q")


def GF(p):
    return CoefficientRing("Fp", p)


def parse_ring(text):
    """Parse a ring spec like ``Z``, ``Q`` or ``F5``."""
    t = text.strip()
    if t == "Z":
        return ZZ
    if t == "Q":
        return QQ
    if t.startswith("F") and t[1:].isdigit():
        return GF(int(t[1:]))
    raise ValueError("cannot parse ring %r (expected Z, Q or F<p>)" % (text,))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Dense matrix with exact ring entries, stored as a list of rows."""

    __slots__ = ("rows", "cols", "data", "ring")

    def __init__(self, rows, cols, data, ring=ZZ):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry layout does not match %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = data
        self.ring = ring

    @classmethod
    def zeros(cls, rows, cols, ring=ZZ):
        z = ring.zero()
        return cls(rows, cols, [[z] * cols for _ in range(rows)], ring)

    @classmethod
    def identity(cls, n, ring=ZZ):
        return cls(n, n, _identity_rows(n, ring), ring)

    @classmethod
    def from_rows(cls, data, ring=ZZ, cols=None):
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        conv = [[ring.from_int(x) if isinstance(x, int) else x for x in row]
                for row in data]
        return cls(rows, cols, conv, ring)

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __repr__(self):
        return "ExactMatrix(%dx%d over %r)" % (self.rows, self.cols, self.ring)

    def mul(self, other):
        if self.ring != other.ring:
            raise RingMismatch("matrix product over different rings")
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        ring = self.ring
        # plain + and * are exact on ints and Fractions; F_p reduces once
        nonzero = [[(j, b) for j, b in enumerate(r) if b] for r in other.data]
        data = []
        for arow in self.data:
            orow = [ring.zero()] * other.cols
            for a, brow in zip(arow, nonzero):
                if a:
                    for j, b in brow:
                        orow[j] += a * b
            data.append([x % ring.p for x in orow] if ring.kind == "Fp"
                        else orow)
        return ExactMatrix(self.rows, other.cols, data, ring)

    def __mul__(self, other):
        return self.mul(other)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def is_zero(self):
        ring = self.ring
        return all(ring.is_zero(x) for row in self.data for x in row)

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]


def _identity_rows(n, ring):
    one, zero = ring.one(), ring.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# elimination steps and the two dense cores
# ---------------------------------------------------------------------------

class _Elimination:
    """A matrix M under elementary operations, with both transforms.

    ``a`` holds the rows of [M | I] stacked on [I]: a row step on the top
    rows also writes U, a column step on the left columns also writes V, and
    the top-left block is U*M*V.  U^-1 is kept transposed, so both inverse
    steps are row steps.  Over F_p every entry written is reduced mod p; the
    ring is tested once per step, never per entry.
    """

    def __init__(self, m):
        self.ring, self.p = m.ring, m.ring.p
        self.rows, self.cols = m.rows, m.cols
        self.uinv_t = _identity_rows(m.rows, m.ring)
        v = _identity_rows(m.cols, m.ring)
        self.a = [r + u for r, u in zip(m.data, self.uinv_t)] + v
        self.vinv = [r[:] for r in v]

    def _axpy(self, m, dst, src, q):
        p = self.p
        if p:
            m[dst] = [(x + q * y) % p for x, y in zip(m[dst], m[src])]
        else:
            m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]

    def row_axpy(self, dst, src, q):
        """Row dst += q * row src; column src of U^-1 -= q * column dst."""
        self._axpy(self.a, dst, src, q)
        self._axpy(self.uinv_t, src, dst, -q)

    def col_axpy(self, dst, src, q):
        """Column dst += q * column src; row src of V^-1 -= q * row dst."""
        p = self.p
        if p:
            for r in self.a:
                r[dst] = (r[dst] + q * r[src]) % p
        else:
            for r in self.a:
                r[dst] += q * r[src]
        self._axpy(self.vinv, src, dst, -q)

    def swap(self, t, i, j):
        """Bring row i and column j to place t."""
        if i != t:
            for m in (self.a, self.uinv_t):
                m[t], m[i] = m[i], m[t]
        if j != t:
            for r in self.a:
                r[t], r[j] = r[j], r[t]
            self.vinv[t], self.vinv[j] = self.vinv[j], self.vinv[t]

    def scale_row(self, t, c):
        """Row t times the unit c; column t of U^-1 times c^-1."""
        p = self.p
        for m, k in ((self.a, c), (self.uinv_t, self.ring.inv(c))):
            m[t] = [k * x % p for x in m[t]] if p else [k * x for x in m[t]]

    def clear(self, t):
        """Clear column t below the pivot a[t][t] and row t right of it.

        Over Z each step subtracts the floor quotient and returns whether a
        remainder is left; over a field the pivot must be 1, and none is.
        """
        a, pivot, euclid = self.a, self.a[t][t], self.ring.kind == "Z"
        left = False
        for i in range(t + 1, self.rows):
            if a[i][t] != 0:
                self.row_axpy(i, t, -(a[i][t] // pivot if euclid else a[i][t]))
                left = left or a[i][t] != 0
        for j in range(t + 1, self.cols):
            if a[t][j] != 0:
                self.col_axpy(j, t, -(a[t][j] // pivot if euclid else a[t][j]))
                left = left or a[t][j] != 0
        return left

    def transforms(self):
        """(U, D, V, U^-1, V^-1) with U*M*V = D."""
        ring, rows, cols, a = self.ring, self.rows, self.cols, self.a
        return (ExactMatrix(rows, rows, [r[cols:] for r in a[:rows]], ring),
                ExactMatrix(rows, cols, [r[:cols] for r in a[:rows]], ring),
                ExactMatrix(cols, cols, a[rows:], ring),
                ExactMatrix(rows, rows, [list(c) for c in zip(*self.uinv_t)],
                            ring),
                ExactMatrix(cols, cols, self.vinv, ring))


def smith_normal_form(m):
    """Smith normal form over Z: returns (U, D, V) with U*M*V = D.

    U and V are unimodular, D is diagonal with nonnegative entries in a
    divisibility chain d_1 | d_2 | ...  The pivot is always a nonzero entry
    of minimal absolute value (lowest row, then column on ties), which keeps
    coefficient growth in check and makes the reduction deterministic.
    """
    u, d, v, _, _ = _snf_with_inverses(m)
    return u, d, v


def _snf_with_inverses(m):
    """SNF plus the inverses of the transforms (needed for generator lifts)."""
    if m.ring != ZZ:
        raise RingMismatch("smith_normal_form is for integer matrices")
    e = _Elimination(m)
    a, rows, cols = e.a, m.rows, m.cols
    for t in range(min(rows, cols)):
        while True:
            # minimal |entry| pivot in the trailing block, lowest row/col wins
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < best[0]):
                        best = (abs(x), i, j)
            if best is None:
                break
            e.swap(t, best[1], best[2])
            if e.clear(t):
                continue
            # enforce d_t | (everything below/right) for the divisibility chain
            pivot = a[t][t]
            for i in range(t + 1, rows):
                if any(a[i][j] % pivot for j in range(t + 1, cols)):
                    e.row_axpy(t, i, 1)
                    break
            else:
                break
        if a[t][t] < 0:
            e.scale_row(t, -1)
    return e.transforms()


def integer_columns(m):
    """The columns of an integer matrix as {column: {row: entry}}, zeros
    left out and rows in increasing order: the input of the column core."""
    if m.ring != ZZ:
        raise RingMismatch("integer columns of a matrix over %r" % (m.ring,))
    if not m.rows:
        return {j: {} for j in range(m.cols)}
    return {j: {i: x for i, x in enumerate(col) if x}
            for j, col in enumerate(zip(*m.data))}


def invariant_factors(m):
    """Nonzero Smith diagonal of an integer matrix, d_1 | d_2 | ...

    ``column_invariant_factors`` of its columns; builds no transforms."""
    return column_invariant_factors(integer_columns(m))


def column_invariant_factors(columns):
    """Nonzero Smith diagonal d_1 | d_2 | ... of integer columns.

    ``columns`` maps each column key to its nonzero entries {row: int}; row
    keys are any sortable labels, and the maps are consumed.  Builds no
    transforms.  While some entry is +-1, pivot on one in a shortest column,
    clear its row from the other columns and drop its row and column with
    factor 1; the rest, with no unit entry, goes to the dense Smith core.
    Smith invariants are unique, so the pivot choice cannot change the
    result.
    """
    live = {j: col for j, col in columns.items() if col}
    units = 0
    while True:
        best = None
        for j, col in live.items():
            if best is None or len(col) < best[0]:
                for i, x in col.items():
                    if x == 1 or x == -1:
                        best = (len(col), j, i)
                        break
        if best is None:
            break
        _, pj, pi = best
        pivot = live.pop(pj)
        u = pivot.pop(pi)
        for j, col in [(j, col) for j, col in live.items() if pi in col]:
            q = col.pop(pi) * u  # col_j -= q * col_pj clears row pi (u*u = 1)
            for i, x in pivot.items():
                col[i] = col.get(i, 0) - q * x
                if not col[i]:
                    del col[i]
        units += 1
    rest = [col for col in live.values() if col]
    if not rest:
        return [1] * units
    rows = sorted({i for col in rest for i in col})
    data = [[col.get(i, 0) for col in rest] for i in rows]
    _, d, _, _, _ = _snf_with_inverses(ExactMatrix(len(rows), len(rest), data))
    return [1] * units + [x for x in d.diagonal() if x]


def _field_diagonalize(m):
    """Gauss-Jordan diagonalization with transforms over a field.

    Returns (U, D, V, Uinv, Vinv) with U*M*V = D and D diagonal whose
    nonzero entries are normalized to 1, mirroring the SNF interface.  The
    elimination steps are the Smith core's; only the pivot rule is its own:
    the first nonzero entry in column-major order, scaled to 1.
    """
    e = _Elimination(m)
    a, rows, cols = e.a, m.rows, m.cols
    for t in range(min(rows, cols)):
        piv = None
        for j in range(t, cols):
            for i in range(t, rows):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        e.swap(t, *piv)
        e.scale_row(t, m.ring.inv(a[t][t]))
        e.clear(t)
    return e.transforms()


def _diagonalize(m):
    if m.ring.is_field():
        return _field_diagonalize(m)
    return _snf_with_inverses(m)


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------

@dataclass
class ModuleInvariants:
    """A f.g. module over a PID: free rank, torsion chain, generator vectors.

    ``torsion`` lists the non-unit nonzero invariant factors in divisibility
    order; the full factor chain of the module is torsion + (0,)*rank.
    ``generators`` (optional) holds one ambient vector per factor, torsion
    generators first, then free ones.
    """

    rank: int
    torsion: list = field(default_factory=list)
    generators: list = field(default_factory=list)

    def gen_count(self):
        return self.rank + len(self.torsion)

    def rel_count(self):
        return len(self.torsion)

    def factors(self):
        return list(self.torsion) + [0] * self.rank

    def is_zero(self):
        return self.rank == 0 and not self.torsion


def direct_sum(modules):
    """Invariants of a direct sum of modules: the ranks add, and the torsion
    is the Smith chain of all their torsion factors on one diagonal."""
    torsion = enumerate(x for mod in modules for x in mod.torsion)
    return ModuleInvariants(rank=sum(mod.rank for mod in modules), torsion=[
        x for x in column_invariant_factors({t: {t: x} for t, x in torsion})
        if x != 1])


def chain_homology_invariants(diffs, ring=ZZ):
    """``column_homology_invariants`` of integer matrices d_n, n = 0..N."""
    for d1, d2 in zip(diffs, diffs[1:]):
        if d1.cols != d2.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d"
                             % (d1.rows, d1.cols, d2.rows, d2.cols))
    return column_homology_invariants([integer_columns(d) for d in diffs],
                                      ring)


def column_homology_invariants(diffs, ring=ZZ):
    """H_0..H_{N-1} over ``ring`` of integer d_n: C_n -> C_{n-1}, n = 0..N.

    Each d_n is given by its columns, {basis key of C_n: {row: int}}, and
    the row keys of d_{n+1} are basis keys of C_n; the maps are consumed.
    ``check_chain_condition`` first, then ``universal_coefficients`` of one
    Smith diagonal per d_n.  No generators."""
    for d1, d2 in zip(diffs, diffs[1:]):
        if d2:
            check_chain_condition({i: c.items() for i, c in d1.items()}, d2)
    return universal_coefficients([len(d) for d in diffs], [
        column_invariant_factors(d) for d in diffs], ring)


def check_chain_condition(d1, d2):
    """ChainConditionViolated unless d1*d2 = 0, for d1 as the (row, entry)
    pairs ``d1[i]`` of each column i and d2 as columns {i: int}."""
    for col in d2.values():
        image = {}
        for i, x in col.items():
            for r, y in d1[i]:
                image[r] = image.get(r, 0) + x * y
        if any(image.values()):
            raise ChainConditionViolated("d1*d2 != 0")


def universal_coefficients(dims, factors, ring):
    """H_n over ``ring`` from dim C_n = ``dims[n]`` and the nonzero Smith
    diagonal ``factors[n]`` of integer d_n: rank dim C_n - r_n - r_{n+1}, r_n
    their count (prime to p over F_p); over Z, torsion: d_{n+1}'s above 1."""
    if ring.kind == "Fp":
        factors = [[x for x in f if x % ring.p] for f in factors]
    return [ModuleInvariants(rank=dim - len(f1) - len(f2), torsion=[
                x for x in f2 if x != 1] if ring.kind == "Z" else [])
            for dim, f1, f2 in zip(dims, factors, factors[1:])]


def module_gen_rel(presentation_matrix, ring=None):
    """Minimal generator and relation counts of a cokernel.

    Rows index free generators, columns index relations; the module is
    coker = R^rows / (column span).  Over a field gen is just the corank and
    rel is 0.
    """
    m = presentation_matrix
    if ring is not None and ring != m.ring:
        m = ExactMatrix.from_rows(m.data, ring, cols=m.cols)
    _, d, _, _, _ = _diagonalize(m)
    diag = d.diagonal()
    units = sum(1 for x in diag if m.ring.is_unit(x))
    zeros = sum(1 for x in diag if m.ring.is_zero(x))
    # coker is the sum of R/d_i and a free R^(rows - len(diag)): a unit d_i
    # adds nothing, a zero one a free generator, any other a relation
    return m.rows - units, len(diag) - units - zeros


def _free_places(d, ring):
    """Places j of a diagonalization U*M*V = D whose column of D is zero."""
    diag = d.diagonal()
    return [j for j in range(d.cols) if j >= len(diag) or ring.is_zero(diag[j])]


def kernel_basis(m):
    """Columns spanning ker(m) as a saturated lattice (a basis over fields)."""
    _, d, v, _, _ = _diagonalize(m)
    return [v.column(j) for j in _free_places(d, m.ring)]


def rank(m):
    _, d, _, _, _ = _diagonalize(m)
    ring = m.ring
    return sum(1 for x in d.diagonal() if not ring.is_zero(x))


def homology_with_representatives(d1, d2, ring=None):
    """Invariants of ker(d1)/im(d2) with generator vectors lifted to ker d1.

    d1: C_n -> C_{n-1} and d2: C_{n+1} -> C_n as matrices (columns are
    images of basis vectors).  Requires d1*d2 = 0.  The returned generator
    vectors live in C_n, are cycles, and reduce to a minimal generating set
    of the subquotient (torsion generators first, then free ones).

    Two eliminations: U*d1*V = D gives ker d1 as the columns of V at the free
    places of D, and the same rows of V^-1 give the coordinates in that basis
    of any vector of ker d1, here the columns of d2.  Diagonalizing the
    coordinate matrix X picks the generators out of ker d1.
    """
    ring = ring or d1.ring
    if d1.ring != ring or d2.ring != ring:
        raise RingMismatch("chain maps over different rings")
    if d1.cols != d2.rows:
        raise ValueError("d1 and d2 shapes are incompatible")
    if not d1.mul(d2).is_zero():
        raise ChainConditionViolated("d1*d2 != 0")

    _, d, v, _, vinv = _diagonalize(d1)
    free = _free_places(d, ring)
    k = len(free)
    if k == 0:
        return ModuleInvariants(rank=0, torsion=[], generators=[])
    # D*(V^-1*t) = U*d1*t = 0 for t in ker d1, so t = V*(V^-1*t) is carried
    # by the free places alone
    X = ExactMatrix(k, d1.cols, [vinv.data[j] for j in free], ring).mul(d2)
    _, dx, _, uxinv, _ = _diagonalize(X)
    diag = dx.diagonal()
    # both cores put the nonzero pivots first: torsion, then free generators
    keep = [i for i in range(k) if i >= len(diag) or not ring.is_unit(diag[i])]
    torsion = [diag[i] for i in keep
               if i < len(diag) and not ring.is_zero(diag[i])]
    kernel = ExactMatrix(k, d1.cols, [v.column(j) for j in free], ring)
    lifts = ExactMatrix(len(keep), k, [uxinv.column(i) for i in keep], ring)
    return ModuleInvariants(rank=len(keep) - len(torsion), torsion=torsion,
                            generators=lifts.mul(kernel).data)


def column_homology_with_representatives(low, mid, high, ring):
    """``homology_with_representatives`` of sparse integer columns: d1 is
    ``mid`` with rows in the order of ``low``'s keys, d2 is ``high`` with
    rows in the order of ``mid``'s keys, so the generator vectors are
    indexed by ``mid``'s keys in order.  The maps are left as they are."""
    def dense(columns, rows):
        place = {r: t for t, r in enumerate(rows)}
        mat = ExactMatrix.zeros(len(place), len(columns), ring)
        for col, image in enumerate(columns.values()):
            for r, x in image.items():
                mat.data[place[r]][col] = ring.from_int(x)
        return mat
    return homology_with_representatives(dense(mid, low), dense(high, mid),
                                         ring)


def cokernel_invariants(m):
    """Invariants of coker(m): R^rows / column span, with generators."""
    zero_top = ExactMatrix.zeros(0, m.rows, m.ring)
    return homology_with_representatives(zero_top, m, m.ring)
