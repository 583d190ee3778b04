"""Walkthrough: graded dimensions of k[K]^! versus closed-form series.

The partially commutative algebra k[K]^! has a basis of lex-least trace
words.  graded_dimensions counts them degree by degree on the automaton of
normal words, whose state is the set of letters that may still be appended;
the counts must reproduce the Koszul-dual series (1+t)^d / h_K(-t), and
dividing by (1+t)^m gives the Poincare series of the loop homology of the
moment-angle complex.  Both comparisons are exact integer arithmetic.
"""

from looppres import PCAlgebra, cycle_complex, disjoint_points, graded_dimensions, simplex
from looppres.homotopy import loop_poincare_series, one_plus_t_power, poly_mul

N = 8

for name, k in [
    ("pentagon", cycle_complex(5)),
    ("square", cycle_complex(4)),
    ("three points", disjoint_points(3)),
    ("4-simplex", simplex(4)),
]:
    alg = PCAlgebra(k)
    dims = graded_dimensions(alg, N)
    loop = loop_poincare_series(k, N)
    predicted = poly_mul(loop, one_plus_t_power(k.m), N)
    predicted += [0] * (N + 1 - len(predicted))
    print("== %s" % name)
    print("   counted dims of k[K]^!    :", dims)
    print("   (1+t)^d / h_K(-t)         :", predicted)
    print("   loop homology series 1/P  :", loop)
    assert dims == predicted
    print()

# A tiny sanity check by hand: in the pentagon, degree 2 has one basis word
# per edge (u_i u_j with the edge relation) and two per diagonal, 15 total.
alg = PCAlgebra(cycle_complex(5))
print("pentagon degree-2 basis size:", graded_dimensions(alg, 2)[2])

# Normal forms at work: with edges {1,2} and {2,3} only, the words u3u2u1
# and u2u3u1 name the same element up to sign.
from looppres import clique_complex

chain = PCAlgebra(clique_complex(3, [(1, 2), (2, 3)]))
print("normalize(u3 u2 u1) =", chain.normalize((3, 2, 1)))
print("normalize(u2 u3 u1) =", chain.normalize((2, 3, 1)))
