"""Metamorphic checks: identities between the answers on related inputs.

Joins: Z_{K1*K2} = Z_K1 x Z_K2, and by the Kunneth formula for joins
H-tilde_1 of a join of nonempty complexes is H-tilde_0 (x) H-tilde_0, which
is free.  So over every ring the join has g1 + g2 generators and
r1 + r2 + g1*g2 relations.  Relabelling: renaming the vertices moves no
count, dimension or homotopy invariant.
"""

import pytest

from corpus import gnp_flag, join, relabelled
from looppres.exactlin import GF, QQ, ZZ
from looppres.homotopy import multiplicity_report
from looppres.pcalg import PCAlgebra, graded_dimensions
from looppres.presentation import build_presentation, verify_presentation
from looppres.simplicial import (
    all_subsets,
    cycle_complex,
    disjoint_points,
    octahedron,
    path_complex,
    reduced_betti0,
    reduced_homology_invariants,
)

RINGS = [ZZ, GF(2), QQ]


def counts(k, ring):
    """(generators, relations) of the multigraded presentation, read off
    the invariants of every K_J without building it."""
    gens = sum(reduced_betti0(k, j) for j in all_subsets(k.m))
    rels = sum(reduced_homology_invariants(k, j, ring, degree=2).gen_count()
               for j in all_subsets(k.m) if len(j) >= 3)
    return gens, rels


def join_counts(c1, c2):
    (g1, r1), (g2, r2) = c1, c2
    return g1 + g2, r1 + r2 + g1 * g2


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("k1, k2, expected", [
    (cycle_complex(4), cycle_complex(5), (12, 22)),
    (cycle_complex(5), gnp_flag(5, 2, p=0.4), (35, 251)),
    (gnp_flag(4, 1, p=0.3), cycle_complex(6), (43, 307)),
], ids=["4-gon*5-gon", "5-gon*G(5,0.4)#2", "G(4,0.3)#1*6-gon"])
def test_join_counts_through_invariants(k1, k2, expected, ring):
    got = counts(join(k1, k2), ring)
    assert got == join_counts(counts(k1, ring), counts(k2, ring))
    assert got == expected


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("k1, k2, expected", [
    (cycle_complex(4), disjoint_points(3), (7, 11)),
    (path_complex(3), cycle_complex(4), (3, 3)),
    (disjoint_points(2), cycle_complex(5), (11, 11)),
], ids=["4-gon*3pts", "3-path*4-gon", "2pts*5-gon"])
def test_join_counts_through_a_verified_build(k1, k2, expected, ring):
    k = join(k1, k2)
    pres = build_presentation(k, ring)
    got = (len(pres.generators), len(pres.relations))
    assert got == join_counts(counts(k1, ring), counts(k2, ring))
    assert got == expected
    report = verify_presentation(k, pres)
    assert report.ok, report.summary()


def degree_counts(k, ring):
    pres = build_presentation(k, ring)
    gens, rels = {}, {}
    for g in pres.generators:
        gens[g.degree] = gens.get(g.degree, 0) + 1
    for rel in pres.relations:
        rels[rel.degree] = rels.get(rel.degree, 0) + 1
    return gens, rels


@pytest.mark.parametrize("k", [
    pytest.param(cycle_complex(6), id="hexagon"),
    pytest.param(gnp_flag(7, 1, p=0.4), id="G(7,0.4)#1"),
    pytest.param(octahedron(), id="octahedron"),
])
def test_relabelling_keeps_invariants(k):
    moved = relabelled(k, 7)
    assert moved != k  # the permutation really moves the facets
    for ring in (ZZ, GF(2)):
        assert degree_counts(moved, ring) == degree_counts(k, ring)
    assert graded_dimensions(PCAlgebra(moved, ZZ), 8) == \
        graded_dimensions(PCAlgebra(k, ZZ), 8)
    assert multiplicity_report(moved, 12).to_dict() == \
        multiplicity_report(k, 12).to_dict()
