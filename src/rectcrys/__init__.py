"""Affine type A crystal combinatorics on tensor products of rectangles.

The package models tensor products of rectangular column-strict tableaux as
classical crystals for the affine special linear algebra: classical operators
by the signature rule, the zero-color operators through promotion, the RSK
decomposition with Littlewood-Richardson recording tableaux, combinatorial
R-matrices, energy and generalized charge, generalized Kostka polynomials,
and an independent affine Demazure character calculator that reproduces the
same graded characters.

Names resolve on first use (PEP 562): ``rectcrys.X`` and
``from rectcrys import X`` import only the submodule that defines X, so a
caller that needs promotion never loads the Kostka or Demazure code.
"""

from importlib import import_module

# Submodule -> the names it exports.
_EXPORTS = {
    "affine": "PromotionTrace chi chi_inverse cocyclage_witness e0 eps0 f0 pair_promote"
    " phi0 promote promote_inverse promote_tableau",
    "crystal": "CrystalElement RectSequence Signature e enumerate_crystal eps f"
    " highest_weight_element phi reflection signature young_w0",
    "demazure": "AffineWeight FormalCharacter crystal_side_character demazure_character"
    " simple_reflection_weight translation_reduced_word",
    "energy": "classical_charge charge_word d_stat energy_terms local_H tableau_energy"
    " total_energy",
    "errors": "InconsistentPairError NonLRError NotPartitionOfNError RectcrysError"
    " RowNError ShapeMismatchError",
    "kpoly": "GradedCharacter graded_character k_polynomial kostka_foulkes"
    " monotonicity_check transposed_kostka",
    "laurent": "LaurentPolynomial",
    "rmatrix": "sigma_compose sigma_swap tau_swap",
    "rsk": "LRTableau TableauPair enumerate_lrt is_r_lr rsk_inverse rsk_pair",
    "tableaux": "SkewShape Tableau antinormal column_insert conjugate enumerate_cst key"
    " partition partitions_of tensor_shape",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
