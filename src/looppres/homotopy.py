"""Sphere-product decomposition of the looped moment-angle complex.

For flag K the identity

    -sum_J chi~(K_J) t^{|J|}  =  (1+t)^{m-d} h_K(-t)  =  prod_{n>=3} (1-t^{n-1})^{D_n}

pins down the multiplicities D_n of loop-space factors Omega S^n, and
1/((1+t)^{m-d} h_K(-t)) is the Poincare series of the loop homology.  All
polynomial and power-series arithmetic here is exact over the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NegativeMultiplicity, NonIntegralMultiplicity
from .simplicial import f_h_vectors, reduced_euler_polynomial, require_flag


# ---------------------------------------------------------------------------
# integer polynomial / truncated series helpers (dense int lists)
# ---------------------------------------------------------------------------

def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p or [0]


def poly_mul(a, b, trunc=None):
    n = len(a) + len(b) - 1
    if trunc is not None:
        n = min(n, trunc + 1)
    out = [0] * n
    for i, x in enumerate(a):
        if x == 0 or i >= n:
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += x * y
    return out


def poly_eval_neg(p):
    """p(-t) coefficientwise."""
    return [c if i % 2 == 0 else -c for i, c in enumerate(p)]


def series_inverse(p, trunc):
    """1/p mod t^{trunc+1}; needs p[0] = 1, stays integral."""
    if not p or p[0] != 1:
        raise ValueError("series inversion needs constant term 1")
    inv = [0] * (trunc + 1)
    inv[0] = 1
    for n in range(1, trunc + 1):
        acc = 0
        for i in range(1, min(n, len(p) - 1) + 1):
            acc += p[i] * inv[n - i]
        inv[n] = -acc
    return inv


def one_plus_t_power(e, trunc=None):
    top = e if trunc is None else min(e, trunc)
    return [math.comb(e, i) for i in range(top + 1)]


def one_minus_tk_power(k, e, trunc):
    """(1 - t^k)^e mod t^{trunc+1} via the binomial series (e can be huge);
    for e < 0 the coefficient of t^{jk} is C(j - e - 1, j)."""
    out = [0] * (trunc + 1)
    for j in range((trunc // k if e < 0 else min(e, trunc // k)) + 1):
        out[j * k] = math.comb(j - e - 1, j) if e < 0 else \
            (-1) ** j * math.comb(e, j)
    return out


# ---------------------------------------------------------------------------
# the Euler-characteristic / h-polynomial identity
# ---------------------------------------------------------------------------

def char_polynomial(k):
    """P(t) = -sum_J chi~(K_J) t^{|J|}, exact integer coefficients."""
    return poly_trim([-c for c in reduced_euler_polynomial(k)])


def h_side_polynomial(k):
    """(1+t)^{m-d} h_K(-t) for d = dim K + 1."""
    _, h, d = f_h_vectors(k)
    return poly_trim(poly_mul(one_plus_t_power(k.m - d),
                              poly_eval_neg(list(h))))


def euler_identity_check(k):
    """Both sides of the defining identity; they agree exactly for flag K."""
    require_flag(k)
    lhs = char_polynomial(k)
    rhs = h_side_polynomial(k)
    return lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# sphere multiplicities and homotopy ranks
# ---------------------------------------------------------------------------

def sphere_multiplicities(p, trunc=16):
    """Extract D_n from P = prod_{n>=3} (1 - t^{n-1})^{D_n}, n-1 <= trunc.

    Iteratively: D_{k+1} is minus the t^k coefficient of the running
    series, which is then divided by (1 - t^k)^{D_{k+1}}.  Every D must
    come out a nonnegative integer (they do for flag complexes); anything
    else signals a non-flag input or corrupted polynomial.
    """
    p = list(p)
    if not p or p[0] != 1:
        raise NonIntegralMultiplicity("product extraction needs P(0) = 1")
    if len(p) > 1 and p[1] != 0:
        raise NonIntegralMultiplicity("t^1 coefficient must vanish (D_2 = 0)")
    cur = p + [0] * (trunc + 1 - len(p)) if len(p) <= trunc else p[:trunc + 1]
    out = {}
    for k in range(2, trunc + 1):
        d = -cur[k]
        if d < 0:
            raise NegativeMultiplicity("D_%d = %d < 0" % (k + 1, d))
        out[k + 1] = d
        if d:  # divide by (1-t^k)^d: multiply by the sparse (1-t^k)^-d
            cur = poly_mul(one_minus_tk_power(k, -d, trunc), cur, trunc)
    return out


def expand_sphere_product(multiplicities, trunc=16):
    """prod_n (1 - t^{n-1})^{D_n} mod t^{trunc+1} (re-expansion check)."""
    out = [0] * (trunc + 1)
    out[0] = 1
    for n, d in sorted(multiplicities.items()):
        if d == 0 or n - 1 > trunc:
            continue
        out = poly_mul(one_minus_tk_power(n - 1, d, trunc), out, trunc)
    return out


def loop_poincare_series(k, trunc=16):
    """Poincare series of the loop homology: 1/P(t) mod t^{trunc+1}."""
    require_flag(k)
    series = series_inverse(char_polynomial(k), trunc)
    assert all(c >= 0 for c in series)
    return series


def serre_rank(big_n, n):
    """rank of pi_N(S^n) (x) Q: 1 for N = n, plus 1 for even n, N = 2n-1."""
    if big_n == n:
        return 1
    if n % 2 == 0 and big_n == 2 * n - 1:
        return 1
    return 0


def rational_homotopy_ranks(multiplicities, trunc=16):
    """Table N -> rank of pi_N (x) Q through degree ``trunc``."""
    return {big_n: sum(d * serre_rank(big_n, n)
                       for n, d in multiplicities.items())
            for big_n in range(1, trunc + 1)}


def symbolic_homotopy_group(multiplicities, big_n):
    """pi_N as a formal sum of sphere homotopy groups, e.g.
    ``pi_7(S^3)^5 + pi_7(S^4)^5``.  Torsion stays symbolic by design."""
    pieces = []
    for n, d in sorted(multiplicities.items()):
        if d == 0 or n > big_n:
            continue
        pieces.append("pi_%d(S^%d)" % (big_n, n) + ("^%d" % d if d > 1 else ""))
    return " + ".join(pieces) if pieces else "0"


# ---------------------------------------------------------------------------
# the assembled report
# ---------------------------------------------------------------------------

@dataclass
class MultiplicityReport:
    p: list
    multiplicities: dict         # n -> D_n, every computed n
    poincare: list               # coefficients of 1/P
    rational_ranks: dict         # N -> rank pi_N (x) Q
    trunc: int = 16

    def nonzero_multiplicities(self):
        return {n: d for n, d in sorted(self.multiplicities.items()) if d}

    def to_dict(self):
        return {
            "P": list(self.p),
            "D": {str(n): d for n, d in self.nonzero_multiplicities().items()},
            "poincare": list(self.poincare),
            "rational_ranks": {str(n): r for n, r in
                               sorted(self.rational_ranks.items()) if r},
        }


def multiplicity_report(k, trunc=16):
    """Full homotopy report for a flag complex: P, D_n, 1/P, rank table."""
    lhs, rhs, equal = euler_identity_check(k)
    assert equal, "Euler identity failed; input is expected to be flag"
    d = sphere_multiplicities(lhs, trunc)
    assert expand_sphere_product(d, trunc) == \
        (lhs + [0] * (trunc + 1 - len(lhs)))[:trunc + 1]
    return MultiplicityReport(p=lhs, multiplicities=d,
                              poincare=loop_poincare_series(k, trunc),
                              rational_ranks=rational_homotopy_ranks(d, trunc),
                              trunc=trunc)
