"""The evaluation corpus: named complexes plus seeded random flag complexes."""

import random

from looppres.simplicial import (
    SimplicialComplex,
    clique_complex,
    cycle_complex,
    disjoint_points,
    graph_complex,
    octahedron,
    path_complex,
    simplex,
)


def star_complex(m):
    return graph_complex(m, [(1, j) for j in range(2, m + 1)])


def broom_tree():
    return graph_complex(6, [(1, 2), (2, 3), (3, 4), (2, 5), (5, 6)])


def k6_clique():
    # the clique complex of the complete graph K_6, i.e. the full simplex on
    # six vertices (K_6 is also the 1-skeleton of the minimal RP^2, whence
    # this entry's former name; its clique complex is not RP^2)
    edges = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    return clique_complex(6, edges)


def rp2_flag12():
    """A flag RP^2 on 12 vertices: f-vector (12, 33, 22), H_1 = Z/2.

    Found from the minimal 6-vertex RP^2 by subdividing, while the complex
    is not flag, an edge chosen by ``random.Random(65).sample(sorted(w), 2)``
    from the minimal non-face w that ``is_flag`` reports.
    """
    return SimplicialComplex(12, [
        [1, 3, 4], [1, 3, 6], [1, 4, 8], [1, 5, 8], [1, 5, 12], [1, 6, 12],
        [2, 4, 8], [2, 4, 11], [2, 5, 7], [2, 5, 8], [2, 6, 7], [2, 6, 11],
        [3, 4, 9], [3, 6, 7], [3, 7, 9], [4, 9, 10], [4, 10, 11], [5, 7, 9],
        [5, 9, 10], [5, 10, 12], [6, 10, 11], [6, 10, 12]])


def gnp_flag(m, seed, p=0.5):
    """Clique complex of the seeded Erdos-Renyi graph G(m, p)."""
    rng = random.Random(seed)
    return clique_complex(m, [(i, j) for i in range(1, m + 1)
                              for j in range(i + 1, m + 1)
                              if rng.random() < p])


def join(k1, k2):
    """The join K1 * K2 on vertices 1..m1 and m1+1..m1+m2: the clique complex
    of the graph join, which for flag K1 and K2 is their simplicial join."""
    m1 = k1.m
    edges = k1.edges() + [(a + m1, b + m1) for a, b in k2.edges()]
    edges += [(a, b + m1) for a in k1.vertices() for b in k2.vertices()]
    return clique_complex(m1 + k2.m, edges)


def relabelled(k, seed):
    """K with its vertices renamed by a seeded permutation of [m]."""
    perm = list(k.vertices())
    random.Random(seed).shuffle(perm)
    return SimplicialComplex(k.m, [[perm[v - 1] for v in f]
                                   for f in k.facets])


def named_complexes():
    out = []
    for m in range(4, 9):
        out.append(("%d-gon" % m, cycle_complex(m)))
    for m in range(1, 6):
        out.append(("simplex-%d" % m, simplex(m)))
    for m in range(2, 6):
        out.append(("points-%d" % m, disjoint_points(m)))
    out.append(("path-5", path_complex(5)))
    out.append(("star-5", star_complex(5)))
    out.append(("broom-6", broom_tree()))
    out.append(("k6-clique", k6_clique()))
    out.append(("octahedron", octahedron()))
    return out


def random_flag_complexes(count=50, min_m=3, max_m=7, seed=20240613):
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        m = rng.randint(min_m, max_m)
        p = rng.uniform(0.25, 0.75)
        edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if rng.random() < p]
        out.append(("random-%02d (m=%d)" % (idx, m), clique_complex(m, edges)))
    return out


def full_corpus():
    return named_complexes() + random_flag_complexes()
