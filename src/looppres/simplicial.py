"""Simplicial complexes on a vertex set [m] = {1, ..., m}.

Faces are kept as frozensets of 1-indexed vertices, closed downward from the
facet list at construction.  ``SimplicialComplex`` is the one filter down to
the maximal faces, so ``clique_complex`` and ``full_subcomplex`` hand it every
face they find; ``_cliques`` is the one clique walk, which ``is_flag`` and
``clique_complex`` share.  All per-subset operations (full subcomplexes,
path components, reduced homology of K_J) take the ambient complex plus a
vertex subset J, so nothing is ever relabeled behind the caller's back.

Reduced homology uses the augmented chain complex: the empty face spans
degree -1, and d([I]) = sum_{i in I} (-1)^{|I_<i|} [I \\ i].  With this
convention the homology of K_empty = {emptyset} is the coefficient ring in
augmented degree -1, which every downstream Tor bookkeeping formula needs.

Every complex builds its ``FaceIndex`` (``k.index``) with its faces: the
faces by size as vertex bitmasks, each with the index positions and signs of
its boundary.  The faces of K_J are then a mask test, the boundary of K_J is a
set of sparse integer columns, and path components and graph distances are
breadth-first searches on neighbor masks.  Every query about K_J reads it:
components, betti numbers, homology invariants (H_1 from the graph and the
triangle columns, the rest by ``exactlin.column_homology_invariants``) and,
where they are nonzero, the cycles of ``reduced_homology``: H-tilde_0's from
the components, the others lifted from the columns.  ``boundary_matrix`` and
``faces_within`` build K_J's dense matrices from the face list; the tests use
them as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import EmptySubset, FaceOutsideJ, NotFlag, VertexOutOfRange
from .exactlin import (
    ZZ,
    ExactMatrix,
    ModuleInvariants,
    check_chain_condition,
    column_homology_invariants,
    column_homology_with_representatives,
    column_invariant_factors,
    universal_coefficients,
)

DEFAULT_MAX_M = 24


class SimplicialComplex:
    """Complex given by vertex count m and its maximal faces.

    Every singleton {i}, i in [m], must be a face (no ghost vertices).
    Facet lists are deduplicated and non-maximal entries dropped.  The faces,
    the adjacency and the ``FaceIndex`` (``index``) are built here, from the
    facets alone, and never change afterwards.
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
            if not any(f <= g for g in maximal):
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
        self.index = FaceIndex(self)

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
                isinstance(f, list) and all(type(v) is int for v in f)
                for f in facets):
            raise ValueError("\"facets\" must be a list of integer lists")
        m = data.get("m")
        if m is None:
            m = max((v for f in facets for v in f), default=0)
        elif type(m) is not int:
            raise ValueError("\"m\" must be an integer, got %r" % (m,))
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

def _cliques(m, adjacency):
    """The cliques of the graph on [m] with neighbor sets ``adjacency``, by
    size: each level extends the cliques of the last, in order, by every
    common neighbor above their largest vertex, in increasing order."""
    level = [frozenset([v]) for v in range(1, m + 1)]
    while level:
        yield from level
        nxt = []
        for c in level:
            top = max(c)
            common = adjacency[top].intersection(*(adjacency[v] for v in c))
            nxt.extend(c | {v} for v in sorted(common) if v > top)
        level = nxt


def is_flag(k):
    """True if every minimal non-face has two vertices.

    On failure also returns one minimal non-face of size >= 3 as a witness:
    (False, witness).  Equivalent test: K is the clique complex of its own
    1-skeleton, so we walk the cliques of the adjacency graph by size and
    look for one that is not a face.  Every smaller clique was a face one
    level earlier, so the first clique that is not is a minimal non-face:
    of the smallest size, the least by sorted vertex tuple.
    """
    for c in _cliques(k.m, k.adjacency):
        if len(c) > 2 and not k.has_face(c):
            return False, c
    return True, None


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
    reports faces in the ambient numbering.  VertexOutOfRange unless J lies
    in [m].
    """
    j = frozenset(j)
    k.index.mask(j)
    labels = sorted(j)
    index = {v: i + 1 for i, v in enumerate(labels)}
    sub = SimplicialComplex(len(labels), [[index[v] for v in f]
                                          for f in k.faces() if f and f <= j],
                            max_m=max(DEFAULT_MAX_M, k.m))
    sub.vertex_labels = tuple(labels)
    facets = sub.facets  # a closure over sub would be a cycle only gc frees
    sub.facets_original_labels = lambda: [
        sorted(labels[v - 1] for v in f) for f in facets]
    return sub


def _mask(vertices):
    """Bitmask of vertices >= 1: bit v-1 for vertex v."""
    return sum(map((1).__lshift__, vertices)) >> 1


def _vertex_mask(m, j):
    """J as a bitmask, refused with VertexOutOfRange unless J lies in [m]."""
    j = frozenset(j)
    if j and (min(j) < 1 or max(j) > m):
        bad = min(v for v in j if not 1 <= v <= m)
        raise VertexOutOfRange("vertex %r not in [1..%d]" % (bad, m))
    return _mask(j)


def _vertices(mask):
    """The vertices of a bitmask, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _components(neighbors, jmask):
    """Bitmasks of the components of the graph on ``jmask``, by smallest
    vertex; ``neighbors[v]`` is the neighbor mask of vertex v."""
    comps = []
    while jmask:
        comp = frontier = jmask & -jmask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = neighbors[low.bit_length()] & jmask & ~comp
            comp |= new
            frontier |= new
        jmask ^= comp
        comps.append(comp)
    return comps


def faces_within(k, j, size):
    """K_J's faces of ``size`` vertices; VertexOutOfRange unless J in [m]."""
    k.index.mask(j)
    j = frozenset(j)
    return [f for f in k.faces_of_size(size) if f <= j]


def path_components(k, j):
    """Components of the 1-skeleton of K_J.

    Returned as sorted tuples, ordered by smallest vertex.
    """
    return [_vertices(c) for c in k.index.components(j)]


def theta_set(k, j):
    """Theta(J): the least vertex of each path component of K_J (a
    ``k.index.components`` mask) that misses max(J); the one rule for which
    c(J - i, u_i) are generators."""
    j = frozenset(j)
    if not j:
        raise EmptySubset("theta_set needs a nonempty J")
    top = 1 << (max(j) - 1)
    return frozenset((c & -c).bit_length()
                     for c in k.index.components(j) if not c & top)


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
    dst_index = {f: i for i, f in enumerate(faces_within(k, j, n - 1))}
    signs = (ring.one(), ring.neg(ring.one()))
    data = [[ring.zero()] * len(src) for _ in dst_index]
    for col, face in enumerate(src):
        for pos, v in enumerate(sorted(face)):
            data[dst_index[face - {v}]][col] = signs[pos % 2]
    return ExactMatrix(len(dst_index), len(src), data, ring)


def chain_boundary(k, cycle, ring=ZZ):
    """Boundary of a SimplicialCycle as a face -> coefficient map."""
    out = {}
    for face, coeff in cycle.terms:
        for pos, v in enumerate(sorted(face)):
            g = face - {v}
            out[g] = out.get(g, 0) + (-coeff if pos % 2 else coeff)
    return ring.settle(out)


def is_cycle(k, cycle, ring=ZZ):
    """True iff the chain has zero boundary; a face outside ``cycle.j``
    raises FaceOutsideJ, since the chain then lies in no K_J."""
    if any(not face <= cycle.j for face, _ in cycle.terms):
        raise FaceOutsideJ("chain leaves J=%s" % sorted(cycle.j))
    return not chain_boundary(k, cycle, ring)


def reduced_homology(k, j, ring=ZZ, degree=1):
    """H-tilde_{degree-1}(K_J; ring) with generating cycles.

    ``degree`` counts face size n, matching the Koszul strand bookkeeping:
    degree n holds faces with n vertices, i.e. simplices of dimension n-1.
    Returns (ModuleInvariants, [SimplicialCycle, ...]) where the cycles are
    the generator representatives (torsion generators first), where the face
    index finds homology: u_min(C) - u_min(J) for each path component C of
    K_J but min(J)'s in H-tilde_0, a basis over every ring; else lifted from
    the index's columns of sizes degree-1, degree and degree+1, on the faces
    of K_J with ``degree`` vertices in ``faces_of_size`` order.
    """
    j = frozenset(j)
    inv = reduced_homology_invariants(k, j, ring, degree)
    if inv.is_zero():
        return inv, []
    if degree == 1:
        first, *rest = [frozenset(c[:1]) for c in path_components(k, j)]
        one, minus = ring.one(), ring.from_int(-1)
        return inv, [SimplicialCycle(j=j, dimension=0, terms=(
            (first, minus), (c, one))) for c in rest]
    low, mid, high = k.index.columns(j, (degree - 1, degree, degree + 1))
    inv = column_homology_with_representatives(low, mid, high, ring)
    basis = [k.faces_of_size(degree)[t] for t in mid]
    return inv, [SimplicialCycle(j=j, dimension=degree - 1, terms=tuple(
        (basis[i], c) for i, c in enumerate(vec) if not ring.is_zero(c)))
        for vec in inv.generators]


def reduced_homology_invariants(k, j, ring=ZZ, degree=1):
    """``reduced_homology`` without cycles, from the face index.

    H_1 (``degree`` 2): the edge boundary is totally unimodular (Schrijver
    1986, section 19), so its Smith diagonal is |J| - c_J ones over every
    ring (c_J path components).  A forest has H_1 = 0; else only the triangle
    columns are built, checked against the index's edges and reduced."""
    if degree != 2:
        return k.index.homology_invariants(j, ring, (degree, degree + 1))[0]
    jmask, nbrs = k.index.mask(j), k.index.neighbors
    edges = sum((nbrs[v] & jmask).bit_count() for v in _vertices(jmask)) // 2
    ones = jmask.bit_count() - len(_components(nbrs, jmask))
    if edges == ones:  # a forest
        return ModuleInvariants(rank=0)
    (triangles,) = k.index.columns(j, (3,))
    check_chain_condition(k.index.boundary[2], triangles)
    factors = column_invariant_factors(triangles)
    return universal_coefficients([edges], [[1] * ones, factors], ring)[0]


def reduced_betti0(k, j):
    """b-tilde_0(K_J): one less than the number of path components."""
    return max(len(k.index.components(j)) - 1, 0)


class FaceIndex:
    """The faces of K by size as vertex bitmasks, with their boundaries.

    Built with the complex (``k.index``), it serves every per-J query; only
    a cycle lift densifies its columns.  ``masks[n]`` lists the faces with n vertices in
    ``faces_of_size(n)`` order, as bitmasks (bit v-1 for vertex v), and
    ``boundary[n][t]`` holds the (position in ``masks[n-1]``, sign) pairs of
    d(face t), by increasing position; ``neighbors[v]`` is the neighbor mask
    of vertex v.  The faces of K_J are those whose mask lies in J's, so the
    boundary of K_J keys its columns and rows by positions in the index.
    """

    __slots__ = ("m", "masks", "boundary", "neighbors")

    def __init__(self, k):
        self.m = k.m
        self.masks, self.boundary = [], []
        place = {}
        for n in range(k.dim() + 2):
            faces = k.faces_of_size(n)
            masks = [_mask(f) for f in faces]
            self.boundary.append([tuple(sorted(
                (place[mask ^ (1 << (v - 1))], -1 if pos % 2 else 1)
                for pos, v in enumerate(sorted(f))))
                for f, mask in zip(faces, masks)])
            self.masks.append(masks)
            place = {mask: t for t, mask in enumerate(masks)}
        self.neighbors = [0] * (k.m + 1)
        for v, adj in k.adjacency.items():
            self.neighbors[v] = _mask(adj)

    def mask(self, j):
        """J as a bitmask; VertexOutOfRange unless J lies in [m]."""
        return _vertex_mask(self.m, j)

    def columns(self, j, sizes):
        """d from faces of size n to size n-1 in K_J for each n in
        ``sizes``: {position: {row position: +-1}}, the augmented
        ``boundary_matrix`` by columns; no faces have size n < 0 or above the
        top.  J is checked once."""
        out = ~self.mask(j)
        return [{t: dict(self.boundary[n][t])
                 for t, f in enumerate(self.masks[n]) if not f & out}
                if 0 <= n < len(self.masks) else {} for n in sizes]

    def homology_invariants(self, j, ring, sizes):
        """``column_homology_invariants`` of d_n on K_J for n in ``sizes``:
        H-tilde_{n-1}(K_J; ring) for each n but the last."""
        return column_homology_invariants(self.columns(j, sizes), ring)

    def components(self, j):
        """``path_components`` of K_J, as bitmasks."""
        return _components(self.neighbors, self.mask(j))

    def distances(self, j, v):
        """{vertex: graph distance from v in K_J} over v's component, by
        breadth-first search on neighbor masks; VertexOutOfRange unless v
        lies in J and J in [m]."""
        jmask = self.mask(j)
        seen = frontier = jmask & (1 << (v - 1)) if 1 <= v <= self.m else 0
        if not frontier:
            raise VertexOutOfRange("vertex %r not in J" % (v,))
        dist, step = {}, 0
        while frontier:
            reach = 0
            for u in _vertices(frontier):
                dist[u] = step
                reach |= self.neighbors[u]
            frontier = reach & jmask & ~seen
            seen |= frontier
            step += 1
        return dist


def reduced_euler_characteristic(k, j):
    """chi-tilde(K_J), with chi-tilde of the empty complex = -1;
    VertexOutOfRange unless J lies in [m]."""
    out = ~k.index.mask(j)  # -sum of (-1)^{|face|}, empty face included
    return sum((1 if n % 2 else -1) * sum(not f & out for f in masks)
               for n, masks in enumerate(k.index.masks))


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
    """Subsets of [m] for deterministic sweeps: by size, then by sorted
    vertex tuple (the order ``combinations`` gives)."""
    vertices = range(1, m + 1)
    return [frozenset(c) for size in range(m + 1)
            for c in combinations(vertices, size)]


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
    """The 1-dimensional complex on [m] with the given pairs as edges."""
    facets = [[i] for i in range(1, m + 1)] + [[a, b] for a, b in edges]
    return SimplicialComplex(m, facets)


def clique_complex(m, edges):
    """Flag complex generated by a graph: faces are the cliques of
    ``graph_complex(m, edges)``, which checks the vertices."""
    return SimplicialComplex(m, _cliques(m, graph_complex(m, edges).adjacency))


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
