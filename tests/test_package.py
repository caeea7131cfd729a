"""The package's public surface: the lazily resolved names and the
immutable value types."""

import importlib
import pickle

import pytest

import rectcrys
from rectcrys.affine import PromotionTrace, pair_promote
from rectcrys.crystal import CrystalElement, RectSequence, Signature, word_signature
from rectcrys.errors import NonLRError, ShapeMismatchError
from rectcrys.rsk import LRTableau, TableauPair, rsk_pair
from rectcrys.tableaux import SkewShape, Tableau

# The names the package exported when its __init__ imported every module,
# by the module that defines (or re-exports) each.
EXPORTS = {
    "affine": "PromotionTrace chi chi_inverse cocyclage_witness e0 eps0 f0 pair_promote "
    "phi0 promote promote_inverse promote_tableau",
    "crystal": "CrystalElement RectSequence Signature e enumerate_crystal eps f "
    "highest_weight_element phi reflection signature young_w0",
    "demazure": "AffineWeight FormalCharacter crystal_side_character demazure_character "
    "simple_reflection_weight translation_reduced_word",
    "energy": "classical_charge charge_word d_stat energy_terms local_H tableau_energy "
    "total_energy",
    "errors": "InconsistentPairError NonLRError NotPartitionOfNError RectcrysError "
    "RowNError ShapeMismatchError",
    "kpoly": "GradedCharacter LaurentPolynomial graded_character k_polynomial "
    "kostka_foulkes monotonicity_check transposed_kostka",
    "rmatrix": "sigma_compose sigma_swap tau_swap",
    "rsk": "LRTableau TableauPair enumerate_lrt is_r_lr rsk_inverse rsk_pair",
    "tableaux": "SkewShape Tableau antinormal column_insert conjugate enumerate_cst key "
    "partition partitions_of tensor_shape",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


class TestLazyNamespace:
    def test_every_old_name_is_exported(self):
        assert len(NAMES) == 69
        names = {name for _, name in NAMES}
        assert names <= set(rectcrys.__all__)
        assert names <= set(dir(rectcrys))

    @pytest.mark.parametrize("module, name", NAMES)
    def test_name_is_the_module_object(self, module, name):
        source = importlib.import_module(f"rectcrys.{module}")
        assert getattr(rectcrys, name) is getattr(source, name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from rectcrys import *", namespace)
        assert {name for _, name in NAMES} <= set(namespace)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rectcrys.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec("from rectcrys import no_such_name", {})


SEQ = RectSequence([(2, 2), (1, 1)])
ELEMENT = CrystalElement(SEQ, [Tableau([[1, 1], [2, 3]], n=3), Tableau([[2]], n=3)])
PAIR = rsk_pair(ELEMENT)
# Each value type once, with its repr as a frozen dataclass printed it.
VALUES = [
    (SkewShape([3, 2], [1]), "SkewShape([3, 2]/[1])"),
    (SEQ, "RectSequence([(2, 2), (1, 1)])"),
    (
        word_signature((1, 2, 2, 1, 1), 1),
        "Signature(phi=1, eps=0, f_pos=5, e_pos=None, reduced=((5, '-'),))",
    ),
    (PAIR, "TableauPair(p=1 1 3\n2 2, q=1 1 3\n2 2)"),
    (
        LRTableau(PAIR.q, SEQ),
        "LRTableau(tableau=1 1 3\n2 2, seq=RectSequence([(2, 2), (1, 1)]))",
    ),
    (
        pair_promote(PAIR, SEQ)[1],
        "PromotionTrace(removed_strip=((1, 3),), ejected=(2,), intermediate=1 1\n2 3, "
        "added_strip=((3, 1),))",
    ),
]
FIELDS = {
    SkewShape: ("outer", "inner"),
    RectSequence: ("rects",),
    Signature: ("phi", "eps", "f_pos", "e_pos", "reduced"),
    TableauPair: ("p", "q"),
    LRTableau: ("tableau", "seq"),
    PromotionTrace: ("removed_strip", "ejected", "intermediate", "added_strip"),
}


def same_fields(value):
    cls = type(value)
    return cls(*(getattr(value, name) for name in FIELDS[cls]))


@pytest.mark.parametrize("value, text", VALUES, ids=lambda v: type(v).__name__)
class TestValueTypes:
    def test_repr(self, value, text):
        assert repr(value) == text

    def test_equality_and_hash_by_fields(self, value, text):
        fields = tuple(getattr(value, name) for name in FIELDS[type(value)])
        twin = same_fields(value)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value) == hash(fields)
        assert value != fields and value != object()

    def test_immutable(self, value, text):
        name = FIELDS[type(value)][0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 1

    def test_pickle_round_trip(self, value, text):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == text


def test_skew_shape_unequal_fields():
    assert SkewShape([3, 2], [1]) != SkewShape([3, 2])
    assert len({SkewShape([3, 2], [1]), SkewShape([3, 2], (1, 0))}) == 1


def test_constructor_checks():
    with pytest.raises(ShapeMismatchError):
        TableauPair(PAIR.p, Tableau([[1, 2]], n=3))
    with pytest.raises(NonLRError):
        LRTableau(Tableau([[1, 1]], n=2), RectSequence([(1, 1), (1, 1)]))
    with pytest.raises(ValueError):
        SkewShape([1], [2])
    with pytest.raises(ValueError):
        RectSequence([(0, 1)])
