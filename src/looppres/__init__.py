"""looppres: exact presentations of loop homology algebras of moment-angle
complexes over flag simplicial complexes, verified inside the partially
commutative algebra k[K]^!."""

from .exactlin import (
    GF,
    QQ,
    ZZ,
    CoefficientRing,
    ExactMatrix,
    ModuleInvariants,
    cokernel_invariants,
    homology_with_representatives,
    module_gen_rel,
    parse_ring,
    smith_normal_form,
)
from .freealg import (
    FreePolynomial,
    GeneratorSymbol,
    atom_u,
    expand_c_of_bracket,
    expand_uI_uj,
    expand_uI_x,
    gptw_symbol,
    graded_commutator,
    koszul_theta,
    nested_commutator,
    overline,
    rearrangement_identity_lhs,
    rearrangement_identity_rhs,
    u_word,
)
from .homotopy import (
    MultiplicityReport,
    euler_identity_check,
    loop_poincare_series,
    multiplicity_report,
    rational_homotopy_ranks,
    sphere_multiplicities,
    symbolic_homotopy_group,
)
from .pcalg import PCAlgebra, PCElement, commutator_value, evaluate, graded_dimensions
from .presentation import (
    Context,
    GptwGenerator,
    Presentation,
    Relation,
    build_presentation,
    gptw_assignment,
    gptw_generators,
    is_free_loop_algebra,
    presentation_to_dict,
    relation_for_cycle,
    render_relation,
    rewrite_chat,
    verify_presentation,
)
from .simplicial import (
    SimplicialComplex,
    SimplicialCycle,
    clique_complex,
    cycle_complex,
    disjoint_points,
    f_h_vectors,
    full_subcomplex,
    graph_complex,
    is_flag,
    octahedron,
    path_complex,
    reduced_euler_polynomial,
    reduced_homology,
    reduced_homology_invariants,
    rp2_minimal,
    simplex,
    theta_set,
)
from .torbar import (
    BarElement,
    bar_cycle,
    bar_cycle_closed,
    bar_differential,
    dbar,
    dhat,
    g_map,
    koszul_homology,
    verify_bar_cycle,
)

__version__ = "0.1.0"
