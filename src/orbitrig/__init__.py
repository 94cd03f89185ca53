"""Infinitesimal rigidity of symmetric body-bar and body-hinge frameworks.

Decides rigidity both numerically (exact ranks of per-character orbit
matrices on the quotient gain graph) and combinatorially (signed-graphic
matroid union on the induced edge labelings), with verifiable certificates
and explicit nontrivial flexes.
"""

from .algebra import Extensor, LexIndex, SquareMatrix, cap_product, hodge_star, induced_rep, wedge
from .errors import ConsistencyError, InputError, RepresentationError, UnsupportedGroupError
from .gaingraph import (
    CoveredGraph,
    GainEdge,
    GainGraph,
    lift_cover,
    make_gain_graph,
    multiply_edges,
    quotient,
    remove_zero_loops,
)
from .genframe import BarConfiguration, BarEntry, lift_bars, random_generic_bars
from .hinge import (
    Analysis,
    HingeConfiguration,
    analyze_framework,
    analyze_hinge,
    hinge_to_bars,
    random_generic_hinges,
)
from .matroid import (
    CombinatorialVerdict,
    CountingViolation,
    SignedGraph,
    UnionDecomposition,
    check_counting_condition,
    combinatorial_verdict,
    incidence_matrix,
    is_independent_signed,
    matroid_union_rank,
    signed_rank,
)
from .rigidity import (
    Flex,
    OrbitMatrix,
    RigidityReport,
    analyze,
    analyze_generic,
    crosscheck_block_ranks,
    extract_flex,
    matrix_rank,
    orbit_matrix,
    rigidity_matrix,
)
from .symmetry import (
    AbelianGroup,
    PointRepresentation,
    fixed_subspace_basis,
    induced_labeling,
    irrep_value,
    tau_hat2_j,
    trivial_motion_dim,
)

__version__ = "0.1.0"
