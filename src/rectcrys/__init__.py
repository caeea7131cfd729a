"""Affine type A crystal combinatorics on tensor products of rectangles.

The package models tensor products of rectangular column-strict tableaux as
classical crystals for the affine special linear algebra: classical operators
by the signature rule, the zero-color operators through promotion, the RSK
decomposition with Littlewood-Richardson recording tableaux, combinatorial
R-matrices, energy and generalized charge, generalized Kostka polynomials,
and an independent affine Demazure character calculator that reproduces the
same graded characters.
"""

from .affine import (
    PromotionTrace,
    chi,
    chi_inverse,
    cocyclage_witness,
    e0,
    eps0,
    f0,
    pair_promote,
    phi0,
    promote,
    promote_inverse,
    promote_tableau,
)
from .crystal import (
    CrystalElement,
    RectSequence,
    Signature,
    e,
    enumerate_crystal,
    eps,
    f,
    highest_weight_element,
    phi,
    reflection,
    signature,
    young_w0,
)
from .demazure import (
    AffineWeight,
    FormalCharacter,
    crystal_side_character,
    demazure_character,
    simple_reflection_weight,
    translation_reduced_word,
)
from .energy import (
    classical_charge,
    charge_word,
    d_stat,
    energy_terms,
    local_H,
    tableau_energy,
    total_energy,
)
from .errors import (
    InconsistentPairError,
    NonLRError,
    NotPartitionOfNError,
    RectcrysError,
    RowNError,
    ShapeMismatchError,
)
from .kpoly import (
    GradedCharacter,
    LaurentPolynomial,
    graded_character,
    k_polynomial,
    kostka_foulkes,
    monotonicity_check,
    transposed_kostka,
)
from .rmatrix import sigma_compose, sigma_swap, tau_swap
from .rsk import (
    LRTableau,
    TableauPair,
    enumerate_lrt,
    is_r_lr,
    rsk_inverse,
    rsk_pair,
)
from .tableaux import (
    SkewShape,
    Tableau,
    antinormal,
    column_insert,
    conjugate,
    enumerate_cst,
    key,
    partition,
    partitions_of,
    tensor_shape,
)

__version__ = "0.1.0"
