"""Exact linear algebra over Z, Q and Z/p.

Everything here is exact: integer matrices use Python's arbitrary-precision
ints, rational ones use ``fractions.Fraction``, and Z/p works with reduced
residues.  The two workhorses are Smith normal form with unimodular
transforms (over Z) and homology of a two-term complex ``ker d1 / im d2``
with explicit generator vectors.  Invariant factors follow the usual
divisibility-chain convention d_1 | d_2 | ... with unit factors dropped, so
a finitely generated module is recorded as (rank, torsion factors).
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
            if p is None or p < 2 or not _is_prime(p):
                raise ValueError("PrimeField needs a prime p, got %r" % (p,))
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

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        if self.kind == "Z":
            return a in (1, -1)
        return a != 0

    def inv(self, a):
        if self.kind == "Q":
            return Fraction(1) / a
        if self.kind == "Fp":
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
        m = cls.zeros(n, n, ring)
        one = ring.one()
        for i in range(n):
            m.data[i][i] = one
        return m

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
        out = ExactMatrix.zeros(self.rows, other.cols, ring)
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = arow[k]
                if ring.is_zero(a):
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    orow[j] = ring.add(orow[j], ring.mul(a, brow[j]))
        return out

    def __mul__(self, other):
        return self.mul(other)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def is_zero(self):
        ring = self.ring
        return all(ring.is_zero(x) for row in self.data for x in row)

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]


def det_sign_unimodular(m):
    """Determinant of an integer matrix that is expected to be +-1.

    Plain fraction-free expansion via Bareiss; used in tests to certify
    unimodularity of SNF transforms.
    """
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of non-square matrix")
    a = [row[:] for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

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
    rows, cols = m.rows, m.cols
    a = [row[:] for row in m.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    uinv = [row[:] for row in u]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    vinv = [row[:] for row in v]

    def row_axpy(dst, src, q):
        # row_dst += q*row_src on a and u;   uinv column op keeps u*uinv = I
        ar_d, ar_s = a[dst], a[src]
        for j in range(cols):
            ar_d[j] += q * ar_s[j]
        ur_d, ur_s = u[dst], u[src]
        for j in range(rows):
            ur_d[j] += q * ur_s[j]
        for i in range(rows):
            uinv[i][src] -= q * uinv[i][dst]

    def col_axpy(dst, src, q):
        for i in range(rows):
            a[i][dst] += q * a[i][src]
        for i in range(cols):
            v[i][dst] += q * v[i][src]
        vr_d, vr_s = vinv[dst], vinv[src]
        for j in range(cols):
            vr_s[j] -= q * vr_d[j]

    def row_swap(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]
        for i in range(rows):
            uinv[i][i1], uinv[i][i2] = uinv[i][i2], uinv[i][i1]

    def col_swap(j1, j2):
        for i in range(rows):
            a[i][j1], a[i][j2] = a[i][j2], a[i][j1]
        for i in range(cols):
            v[i][j1], v[i][j2] = v[i][j2], v[i][j1]
        vinv[j1], vinv[j2] = vinv[j2], vinv[j1]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for k in range(rows):
            uinv[k][i] = -uinv[k][i]

    n = min(rows, cols)
    for t in range(n):
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
            _, pi, pj = best
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // pivot
                    row_axpy(i, t, -q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // pivot
                    col_axpy(j, t, -q)
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # enforce d_t | (everything below/right) for the divisibility chain
            fixed = True
            for i in range(t + 1, rows):
                if any(a[i][j] % pivot for j in range(t + 1, cols)):
                    row_axpy(t, i, 1)
                    fixed = False
                    break
            if fixed:
                break
        if a[t][t] < 0:
            row_negate(t)

    U = ExactMatrix(rows, rows, u, ZZ)
    D = ExactMatrix(rows, cols, a, ZZ)
    V = ExactMatrix(cols, cols, v, ZZ)
    Uinv = ExactMatrix(rows, rows, uinv, ZZ)
    Vinv = ExactMatrix(cols, cols, vinv, ZZ)
    return U, D, V, Uinv, Vinv


def _field_diagonalize(m):
    """Gauss-Jordan diagonalization with transforms over a field.

    Returns (U, D, V, Uinv, Vinv) with U*M*V = D and D diagonal whose
    nonzero entries are normalized to 1, mirroring the SNF interface.
    """
    ring = m.ring
    rows, cols = m.rows, m.cols
    a = [row[:] for row in m.data]
    one, zero = ring.one(), ring.zero()
    u = [[one if i == j else zero for j in range(rows)] for i in range(rows)]
    uinv = [row[:] for row in u]
    v = [[one if i == j else zero for j in range(cols)] for i in range(cols)]
    vinv = [row[:] for row in v]

    t = 0
    for t in range(min(rows, cols)):
        piv = None
        for j in range(t, cols):
            for i in range(t, rows):
                if not ring.is_zero(a[i][j]):
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
            for i in range(rows):
                uinv[i][t], uinv[i][pi] = uinv[i][pi], uinv[i][t]
        if pj != t:
            for i in range(rows):
                a[i][t], a[i][pj] = a[i][pj], a[i][t]
            for i in range(cols):
                v[i][t], v[i][pj] = v[i][pj], v[i][t]
            vinv[t], vinv[pj] = vinv[pj], vinv[t]
        # scale pivot row to 1
        c = ring.inv(a[t][t])
        a[t] = [ring.mul(c, x) for x in a[t]]
        u[t] = [ring.mul(c, x) for x in u[t]]
        cin = ring.inv(c)
        for i in range(rows):
            uinv[i][t] = ring.mul(uinv[i][t], cin)
        for i in range(rows):
            if i != t and not ring.is_zero(a[i][t]):
                q = ring.neg(a[i][t])
                a[i] = [ring.add(x, ring.mul(q, y)) for x, y in zip(a[i], a[t])]
                u[i] = [ring.add(x, ring.mul(q, y)) for x, y in zip(u[i], u[t])]
                for k in range(rows):
                    uinv[k][t] = ring.sub(uinv[k][t], ring.mul(q, uinv[k][i]))
        for j in range(cols):
            if j != t and not ring.is_zero(a[t][j]):
                q = ring.neg(a[t][j])
                for i in range(rows):
                    a[i][j] = ring.add(a[i][j], ring.mul(q, a[i][t]))
                for i in range(cols):
                    v[i][j] = ring.add(v[i][j], ring.mul(q, v[i][t]))
                vinv[t] = [ring.sub(x, ring.mul(q, y))
                           for x, y in zip(vinv[t], vinv[j])]
    U = ExactMatrix(rows, rows, u, ring)
    D = ExactMatrix(rows, cols, a, ring)
    V = ExactMatrix(cols, cols, v, ring)
    Uinv = ExactMatrix(rows, rows, uinv, ring)
    Vinv = ExactMatrix(cols, cols, vinv, ring)
    return U, D, V, Uinv, Vinv


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


def _invariants_from_diagonal(diag, free_tail, ring):
    """Split a diagonal into (rank, torsion) dropping unit factors."""
    torsion = []
    rank = free_tail
    for x in diag:
        if ring.is_zero(x):
            rank += 1
        elif not ring.is_unit(x):
            torsion.append(x)
    return rank, torsion


def module_gen_rel(presentation_matrix, ring=None):
    """Minimal generator and relation counts of a cokernel.

    Rows index free generators, columns index relations; the module is
    coker = R^rows / (column span).  Over a field gen is just the corank and
    rel is 0.
    """
    m = presentation_matrix
    if ring is not None and ring != m.ring:
        m = ExactMatrix.from_rows(
            [[ring.from_int(x) if isinstance(x, int) else x for x in row]
             for row in m.data], ring, cols=m.cols)
    _, d, _, _, _ = _diagonalize(m)
    diag = d.diagonal()
    rank, torsion = _invariants_from_diagonal(diag, m.rows - len(diag), m.ring)
    return rank + len(torsion), len(torsion)


def kernel_basis(m):
    """Columns spanning ker(m) as a saturated lattice (a basis over fields)."""
    _, d, v, _, _ = _diagonalize(m)
    diag = d.diagonal()
    ring = m.ring
    free_cols = [j for j in range(m.cols)
                 if j >= len(diag) or ring.is_zero(diag[j])]
    return [v.column(j) for j in free_cols]


def rank(m):
    _, d, _, _, _ = _diagonalize(m)
    ring = m.ring
    return sum(1 for x in d.diagonal() if not ring.is_zero(x))


def _solve_in_lattice(k_cols, targets, ring):
    """Solve K*x = t for each target column; K's columns are independent.

    K must span a saturated sublattice (true for kernels extracted via SNF),
    so integral solutions exist whenever the targets lie in the span.
    """
    n = len(k_cols[0]) if k_cols else (len(targets[0]) if targets else 0)
    k = len(k_cols)
    K = ExactMatrix(n, k, [[k_cols[j][i] for j in range(k)] for i in range(n)],
                    ring)
    u, d, v, _, _ = _diagonalize(K)
    diag = d.diagonal()
    sols = []
    for t in targets:
        rhs = [sum_mul(u.data[i], t, ring) for i in range(n)]
        y = []
        for i in range(k):
            di = diag[i] if i < len(diag) else ring.zero()
            if ring.is_zero(di):
                if not ring.is_zero(rhs[i]):
                    raise ChainConditionViolated("target outside the kernel")
                y.append(ring.zero())
                continue
            if ring.is_field():
                y.append(ring.mul(rhs[i], ring.inv(di)))
            else:
                q, r = divmod(rhs[i], di)
                if r != 0:
                    raise ChainConditionViolated("target outside the lattice")
                y.append(q)
        for i in range(k, n):
            if not ring.is_zero(rhs[i]):
                raise ChainConditionViolated("target outside the kernel")
        sols.append([sum_mul(v.data[i], y, ring) for i in range(k)])
    return sols


def sum_mul(row, vec, ring):
    acc = ring.zero()
    for a, b in zip(row, vec):
        if not (ring.is_zero(a) or ring.is_zero(b)):
            acc = ring.add(acc, ring.mul(a, b))
    return acc


def homology_with_representatives(d1, d2, ring=None):
    """Invariants of ker(d1)/im(d2) with generator vectors lifted to ker d1.

    d1: C_n -> C_{n-1} and d2: C_{n+1} -> C_n as matrices (columns are
    images of basis vectors).  Requires d1*d2 = 0.  The returned generator
    vectors live in C_n, are cycles, and reduce to a minimal generating set
    of the subquotient (torsion generators first, then free ones).
    """
    ring = ring or d1.ring
    if d1.ring != ring or d2.ring != ring:
        raise RingMismatch("chain maps over different rings")
    if d1.cols != d2.rows:
        raise ValueError("d1 and d2 shapes are incompatible")
    if not d1.mul(d2).is_zero():
        raise ChainConditionViolated("d1*d2 != 0")

    n = d1.cols
    kcols = kernel_basis(d1)
    k = len(kcols)
    if k == 0:
        return ModuleInvariants(rank=0, torsion=[], generators=[])

    targets = [d2.column(j) for j in range(d2.cols)]
    coords = _solve_in_lattice(kcols, targets, ring) if targets else []
    X = ExactMatrix(k, len(coords),
                    [[coords[j][i] for j in range(len(coords))]
                     for i in range(k)], ring)
    _, dx, _, uxinv, _ = _diagonalize(X)
    diag = dx.diagonal()

    gens_new_basis = []   # (factor, column index into Uinv)
    for i in range(k):
        f = diag[i] if i < len(diag) else ring.zero()
        if ring.is_unit(f) and not ring.is_zero(f):
            continue
        gens_new_basis.append((f, i))
    # torsion first (divisibility order preserved by SNF), free last
    gens_new_basis.sort(key=lambda t: (ring.is_zero(t[0]), ))

    torsion = []
    generators = []
    for f, i in gens_new_basis:
        if not ring.is_zero(f):
            torsion.append(f)
        lift = [ring.zero()] * n
        for r in range(k):
            c = uxinv.data[r][i]
            if ring.is_zero(c):
                continue
            col = kcols[r]
            for s in range(n):
                lift[s] = ring.add(lift[s], ring.mul(c, col[s]))
        generators.append(lift)
    rank_free = len(gens_new_basis) - len(torsion)
    return ModuleInvariants(rank=rank_free, torsion=torsion,
                            generators=generators)


def cokernel_invariants(m):
    """Invariants of coker(m): R^rows / column span, with generators."""
    zero_top = ExactMatrix.zeros(0, m.rows, m.ring)
    return homology_with_representatives(zero_top, m, m.ring)
