"""Seeded input complexes for the benchmark, built without importing looppres.

Every complex is written as the CLI's input format {"m": int, "facets": [...]}.
Random complexes are clique complexes of Erdos-Renyi graphs G(m, p): for a
graph seed g the edge {i, j} (i < j, lexicographic order) is kept when
``random.Random(g).random() < p`` -- the recipe behind the ROADMAP row
"random m=9 (p=0.4, seed 1)".  Draws are numbered g = 1, 2, ... and no draw is
ever filtered or skipped.

Two seeded variations change the file the program reads:
- ``scrambled`` writes the facets, and the vertices inside each facet, in a
  random order.  The complex itself is unchanged, and so is the output.
- a label seed given to ``gnp_clique`` relabels the vertices by a uniformly
  random permutation.  The isomorphism class stays that of the named draw;
  the permutation travels with the complex (Complex.perm) so that outputs can
  be mapped back to the draw's own labels.
Complexes are named for what they are: the draw (m, p, g), the polygon or the
octahedron.
"""

import random
from dataclasses import dataclass
from itertools import combinations

EDGE_P = 0.4


@dataclass(frozen=True)
class Complex:
    """A named input: its facets, plus any relabelling (new = perm[old - 1])."""

    name: str
    m: int
    facets: tuple
    perm: tuple = None

    def to_json(self):
        return {"m": self.m, "facets": [list(f) for f in self.facets]}

    def original_label(self):
        """Map from the label the program sees back to the draw's own label."""
        return {new: old for old, new in enumerate(self.perm, start=1)}


def _maximal_cliques(m, edges):
    adj = {v: set() for v in range(1, m + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = []

    def grow(clique, candidates, excluded):
        if not candidates and not excluded:
            out.append(tuple(sorted(clique)))
            return
        for v in sorted(candidates):
            grow(clique | {v}, candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    grow(frozenset(), frozenset(adj), frozenset())
    return tuple(sorted(out, key=lambda f: (len(f), f)))


def polygon(m):
    """Boundary of the m-gon."""
    edges = [(i, i + 1) for i in range(1, m)] + [(1, m)]
    return Complex("%d-gon" % m, m, _maximal_cliques(m, edges))


def octahedron():
    """Boundary of the 3-dimensional cross-polytope (a flag 2-sphere)."""
    facets = tuple(sorted((a, b, c) for a in (1, 2) for b in (3, 4)
                          for c in (5, 6)))
    return Complex("octahedron", 6, facets)


def gnp_edges(m, graph_seed, p=EDGE_P):
    rng = random.Random(graph_seed)
    return [(i, j) for i, j in combinations(range(1, m + 1), 2)
            if rng.random() < p]


def gnp_clique(m, graph_seed, label_seed=None, p=EDGE_P):
    """Clique complex of the G(m, p) draw ``graph_seed``, optionally relabelled."""
    edges = gnp_edges(m, graph_seed, p)
    perm = None
    if label_seed is not None:
        perm = list(range(1, m + 1))
        random.Random(label_seed).shuffle(perm)
        edges = [(perm[a - 1], perm[b - 1]) for a, b in edges]
        perm = tuple(perm)
    name = "gnp-m%d-p%g-g%d" % (m, p, graph_seed)
    return Complex(name, m, _maximal_cliques(m, edges), perm)


def scrambled(cx, seed_text):
    """The same complex with its facet list and each facet in a seeded order."""
    rng = random.Random(seed_text)
    facets = [rng.sample(f, len(f)) for f in cx.facets]
    rng.shuffle(facets)
    return Complex(cx.name, cx.m, tuple(tuple(f) for f in facets), cx.perm)
