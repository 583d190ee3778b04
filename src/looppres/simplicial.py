"""Simplicial complexes on a vertex set [m] = {1, ..., m}.

Faces are kept as frozensets of 1-indexed vertices, closed downward from the
facet list at construction.  All per-subset operations (full subcomplexes,
path components, reduced homology of K_J) take the ambient complex plus a
vertex subset J, so nothing is ever relabeled behind the caller's back.

Reduced homology uses the augmented chain complex: the empty face spans
degree -1, and d([I]) = sum_{i in I} (-1)^{|I_<i|} [I \\ i].  With this
convention the homology of K_empty = {emptyset} is the coefficient ring in
augmented degree -1, which every downstream Tor bookkeeping formula needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptySubset, NotFlag, VertexOutOfRange
from .exactlin import ZZ, ExactMatrix, homology_with_representatives

DEFAULT_MAX_M = 24


class SimplicialComplex:
    """Complex given by vertex count m and its maximal faces.

    Every singleton {i}, i in [m], must be a face (no ghost vertices).
    Facet lists are deduplicated and non-maximal entries dropped.
    """

    def __init__(self, m, facets, max_m=None):
        cap = DEFAULT_MAX_M if max_m is None else max_m
        if m < 0 or m > cap:
            raise ValueError("m=%d outside the supported range 0..%d" % (m, cap))
        self.m = m
        cleaned = []
        for f in facets:
            fs = frozenset(f)
            for i in fs:
                if not (1 <= i <= m):
                    raise VertexOutOfRange("vertex %r not in [1..%d]" % (i, m))
            cleaned.append(fs)
        maximal = []
        for f in sorted(set(cleaned), key=lambda s: (-len(s), sorted(s))):
            if not any(f < g or f == g for g in maximal):
                maximal.append(f)
        covered = set().union(*maximal) if maximal else set()
        missing = set(range(1, m + 1)) - covered
        if missing:
            raise ValueError("ghost vertices (in no facet): %s" % sorted(missing))
        self.facets = sorted(maximal, key=lambda s: (len(s), sorted(s)))
        faces = {frozenset()}
        for f in self.facets:
            _close_down(f, faces)
        self._faces = faces
        self._faces_by_size = {}
        for f in faces:
            self._faces_by_size.setdefault(len(f), []).append(f)
        for lst in self._faces_by_size.values():
            lst.sort(key=sorted)
        adj = {i: set() for i in range(1, m + 1)}
        for f in self.faces_of_size(2):
            a, b = sorted(f)
            adj[a].add(b)
            adj[b].add(a)
        self.adjacency = {i: frozenset(s) for i, s in adj.items()}
        self._rewrite_memo = {}
        self._algebras = {}  # ring -> PCAlgebra, see presentation.pc_algebra
        self._flag_cache = None

    # -- queries --
    def has_face(self, subset):
        return frozenset(subset) in self._faces

    def faces(self):
        return self._faces

    def faces_of_size(self, k):
        return self._faces_by_size.get(k, [])

    def dim(self):
        return max(self._faces_by_size) - 1

    def vertices(self):
        return range(1, self.m + 1)

    def edges(self):
        return [tuple(sorted(f)) for f in self.faces_of_size(2)]

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.m == other.m and self.facets == other.facets)

    def __hash__(self):
        return hash((self.m, tuple(self.facets)))

    def __repr__(self):
        return "SimplicialComplex(m=%d, facets=%s)" % (
            self.m, [sorted(f) for f in self.facets])

    @classmethod
    def from_json_dict(cls, data, max_m=None):
        """Build from the shared input format {"m": int, "facets": [[..]]}.

        "m" may be omitted (inferred as the largest vertex); vertices are
        1-indexed.
        """
        if not isinstance(data, dict) or "facets" not in data:
            raise ValueError("input must be an object with a \"facets\" list")
        facets = data["facets"]
        if not isinstance(facets, list) or not all(
                isinstance(f, list) and all(isinstance(v, int) for v in f)
                for f in facets):
            raise ValueError("\"facets\" must be a list of integer lists")
        m = data.get("m")
        if m is None:
            m = max((v for f in facets for v in f), default=0)
        return cls(m, facets, max_m=max_m)

    def to_json_dict(self):
        return {"m": self.m, "facets": [sorted(f) for f in self.facets]}


def _close_down(face, acc):
    if face in acc:
        return
    acc.add(face)
    for v in face:
        _close_down(face - {v}, acc)


# ---------------------------------------------------------------------------
# flagness
# ---------------------------------------------------------------------------

def is_flag(k):
    """True if every minimal non-face has two vertices.

    On failure also returns one minimal non-face of size >= 3 as a witness:
    (False, witness).  Equivalent test: K is the clique complex of its own
    1-skeleton, so we walk cliques of the adjacency graph and look for one
    that is not a face.
    """
    if k._flag_cache is not None:
        return k._flag_cache
    result = _is_flag_uncached(k)
    k._flag_cache = result
    return result


def _is_flag_uncached(k):
    adj = k.adjacency
    cliques = [frozenset([i, j]) for i in k.vertices() for j in adj[i] if i < j]
    while cliques:
        nxt = []
        for c in cliques:
            top = max(c)
            common = None
            for v in c:
                common = adj[v] if common is None else common & adj[v]
            for v in sorted(common):
                if v > top:
                    cand = c | {v}
                    if not k.has_face(cand):
                        return False, _shrink_to_minimal_nonface(k, cand)
                    nxt.append(cand)
        cliques = nxt
    return True, None


def _shrink_to_minimal_nonface(k, s):
    cur = set(s)
    changed = True
    while changed:
        changed = False
        for v in sorted(cur):
            smaller = cur - {v}
            if len(smaller) >= 2 and not k.has_face(smaller):
                cur = smaller
                changed = True
                break
    return frozenset(cur)


def require_flag(k):
    ok, witness = is_flag(k)
    if not ok:
        raise NotFlag("complex is not flag; minimal non-face %s"
                      % sorted(witness), witness=witness)


# ---------------------------------------------------------------------------
# subcomplexes and components
# ---------------------------------------------------------------------------

def full_subcomplex(k, j):
    """The full subcomplex K_J as its own complex.

    Internally the vertices are renumbered 1..|J|; ``vertex_labels`` maps the
    new index back to the original label, and ``facets_original_labels()``
    reports faces in the ambient numbering.
    """
    j = frozenset(j)
    labels = sorted(j)
    index = {v: i + 1 for i, v in enumerate(labels)}
    faces = [f for f in k.faces() if f <= j]
    maximal = [f for f in faces if not any(f < g for g in faces)]
    sub = SimplicialComplex(len(labels),
                            [[index[v] for v in f] for f in maximal if f],
                            max_m=max(DEFAULT_MAX_M, k.m))
    sub.vertex_labels = tuple(labels)
    sub.facets_original_labels = lambda: [
        sorted(sub.vertex_labels[v - 1] for v in f) for f in sub.facets]
    return sub


def faces_within(k, j, size):
    j = frozenset(j)
    return [f for f in k.faces_of_size(size) if f <= j]


def path_components(k, j):
    """Components of the 1-skeleton of K_J, BFS visiting small labels first.

    Returned as sorted tuples, ordered by smallest vertex.
    """
    jset = frozenset(j)
    seen = set()
    comps = []
    for start in sorted(jset):
        if start in seen:
            continue
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop(0)
            comp.append(v)
            for w in sorted(k.adjacency[v]):
                if w in seen or w not in jset:
                    continue
                seen.add(w)
                queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def theta_set(k, j):
    """Vertices i in J that are the smallest of a path component of K_J other
    than the component of max(J)."""
    j = frozenset(j)
    if not j:
        raise EmptySubset("theta_set needs a nonempty J")
    top = max(j)
    out = []
    for comp in path_components(k, j):
        if top not in comp:
            out.append(comp[0])
    return frozenset(out)


# ---------------------------------------------------------------------------
# chains and homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicialCycle:
    """A chain in C_{dim}(K_J); terms are (face, coefficient) pairs."""

    j: frozenset
    dimension: int
    terms: tuple  # ((frozenset face, coeff), ...)


def boundary_matrix(k, j, n, ring=ZZ):
    """Matrix of d from faces of size n to faces of size n-1 in K_J.

    Augmented complex: a face with n vertices spans augmented degree n-1,
    and the empty face (n = 0) is the degree -1 generator.  Basis faces are
    ordered by sorted vertex tuple.
    """
    src = faces_within(k, j, n)
    dst = faces_within(k, j, n - 1)
    dst_index = {f: i for i, f in enumerate(dst)}
    mat = ExactMatrix.zeros(len(dst), len(src), ring)
    for col, face in enumerate(src):
        ordered = sorted(face)
        for pos, v in enumerate(ordered):
            sign = -1 if pos % 2 else 1
            row = dst_index[face - {v}]
            mat.data[row][col] = ring.add(mat.data[row][col],
                                          ring.from_int(sign))
    return mat


def chain_boundary(k, cycle, ring=ZZ):
    """Boundary of a SimplicialCycle as a face -> coefficient map."""
    out = {}
    for face, coeff in cycle.terms:
        ordered = sorted(face)
        for pos, v in enumerate(ordered):
            sign = -1 if pos % 2 else 1
            g = face - {v}
            val = ring.add(out.get(g, ring.zero()),
                           ring.mul(coeff, ring.from_int(sign)))
            if ring.is_zero(val):
                out.pop(g, None)
            else:
                out[g] = val
    return out


def is_cycle(k, cycle, ring=ZZ):
    return not chain_boundary(k, cycle, ring)


def reduced_homology(k, j, ring=ZZ, degree=1):
    """H-tilde_{degree-1}(K_J; ring) with generating cycles.

    ``degree`` counts face size n, matching the Koszul strand bookkeeping:
    degree n holds faces with n vertices, i.e. simplices of dimension n-1.
    Returns (ModuleInvariants, [SimplicialCycle, ...]) where the cycles are
    the generator representatives (torsion generators first).
    """
    j = frozenset(j)
    n = degree
    d1 = boundary_matrix(k, j, n, ring)
    d2 = boundary_matrix(k, j, n + 1, ring)
    inv = homology_with_representatives(d1, d2, ring)
    basis = faces_within(k, j, n)
    cycles = []
    for vec in inv.generators:
        terms = tuple((basis[i], c) for i, c in enumerate(vec)
                      if not ring.is_zero(c))
        cycles.append(SimplicialCycle(j=j, dimension=n - 1, terms=terms))
    return inv, cycles


def reduced_betti0(k, j):
    """b-tilde_0(K_J): one less than the number of path components."""
    j = frozenset(j)
    if not j:
        return 0
    return len(path_components(k, j)) - 1


def reduced_euler_characteristic(k, j):
    """chi-tilde(K_J), with chi-tilde of the empty complex = -1."""
    j = frozenset(j)
    total = 0
    for f in k.faces():
        if f <= j:
            total += -1 if len(f) % 2 == 0 else 1
    return total  # equals -sum_{faces} (-1)^{|face|}, empty face included


# ---------------------------------------------------------------------------
# enumerative invariants
# ---------------------------------------------------------------------------

def f_h_vectors(k):
    """(f-vector, h-vector, d) with f = (f_{-1}, f_0, ..., f_{d-1}).

    d = dim K + 1; h comes from sum_i f_{i-1} t^i (1-t)^{d-i} = sum h_i t^i.
    """
    d = k.dim() + 1
    f = [len(k.faces_of_size(s)) for s in range(d + 1)]
    h = [0] * (d + 1)
    for i in range(d + 1):
        # f[i] t^i (1-t)^(d-i) contributes to coefficients i..d
        for t_pow in range(d - i + 1):
            sign = -1 if t_pow % 2 else 1
            h[i + t_pow] += f[i] * sign * math.comb(d - i, t_pow)
    return tuple(f), tuple(h), d


def reduced_euler_polynomial(k):
    """Coefficients of sum_{J subset [m]} chi-tilde(K_J) t^{|J|}.

    Computed by the closed form -sum_{faces I} (-1)^{|I|} t^{|I|}(1+t)^{m-|I|}
    (the empty face included), which avoids the 2^m loop over subsets.
    """
    m = k.m
    coeffs = [0] * (m + 1)
    for size, faces in k._faces_by_size.items():
        count = len(faces)
        sign = -(1 if size % 2 == 0 else -1)  # -(-1)^{|I|}
        for extra in range(m - size + 1):
            coeffs[size + extra] += sign * count * math.comb(m - size, extra)
    return coeffs


def all_subsets(m):
    """Subsets of [m] ordered by (size, bitmask) for deterministic sweeps."""
    subs = []
    for mask in range(1 << m):
        subs.append(frozenset(i + 1 for i in range(m) if mask >> i & 1))
    subs.sort(key=lambda s: (len(s), sorted(s)))
    return subs


# ---------------------------------------------------------------------------
# constructors for common complexes
# ---------------------------------------------------------------------------

def simplex(m):
    """The full simplex on m vertices."""
    return SimplicialComplex(m, [range(1, m + 1)] if m else [])


def cycle_complex(m):
    """Boundary of the m-gon: vertices 1..m, edges {i, i+1} and {1, m}."""
    if m < 3:
        raise ValueError("an m-gon needs m >= 3")
    edges = [[i, i + 1] for i in range(1, m)] + [[1, m]]
    return SimplicialComplex(m, edges)


def disjoint_points(m):
    return SimplicialComplex(m, [[i] for i in range(1, m + 1)])


def path_complex(m):
    if m == 1:
        return disjoint_points(1)
    return SimplicialComplex(m, [[i, i + 1] for i in range(1, m)])


def graph_complex(m, edges):
    """The 1-dimensional complex with the given edges (plus all vertices)."""
    facets = [[i] for i in range(1, m + 1)] + [list(e) for e in edges]
    return SimplicialComplex(m, facets)


def clique_complex(m, edges):
    """Flag complex generated by a graph: faces are the cliques."""
    adj = {i: set() for i in range(1, m + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    cliques = [frozenset([i]) for i in range(1, m + 1)]
    out = list(cliques)
    while cliques:
        nxt = []
        for c in cliques:
            common = set(range(max(c) + 1, m + 1))
            for v in c:
                common &= adj[v]
            for v in sorted(common):
                nxt.append(c | {v})
        out.extend(nxt)
        cliques = nxt
    maximal = [f for f in out if not any(f < g for g in out)]
    return SimplicialComplex(m, maximal)


def octahedron():
    """Boundary of the 3-dimensional cross-polytope (a flag 2-sphere)."""
    # opposite pairs (1,2), (3,4), (5,6); faces = one from each pair
    facets = [[a, b, c] for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    return SimplicialComplex(6, facets)


def rp2_minimal():
    """Minimal 6-vertex triangulation of the real projective plane.

    Not flag; used as a torsion oracle for homology computations.
    """
    facets = [[1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
              [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6]]
    return SimplicialComplex(6, facets)
