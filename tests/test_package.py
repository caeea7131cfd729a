"""The package's public surface: the lazily resolved names, clear_caches and
the immutable value types."""

import importlib
import os
import pickle
import subprocess
import sys

import pytest

import rectcrys
from rectcrys import crystal, kpoly
from rectcrys.affine import PromotionTrace, pair_promote
from rectcrys.crystal import CrystalElement, RectSequence, Signature
from rectcrys.demazure import demazure_character
from rectcrys.errors import NonLRError, ShapeMismatchError
from rectcrys.kpoly import GradedCharacter, graded_character, k_polynomial
from rectcrys.laurent import LaurentPolynomial
from rectcrys.rsk import LRTableau, TableauPair, rsk_pair
from rectcrys.tableaux import Tableau
from rectcrys.verify import verify_energy

# The names the package exported when its __init__ imported every module,
# by the module that defines (or re-exports) each, less the test-only
# helpers since moved next to their tests and the skew-shape toolkit, which
# nothing used.
EXPORTS = {
    "affine": "PromotionTrace chi cocyclage_witness e0 f0 pair_promote promote "
    "promote_inverse promote_tableau",
    "crystal": "CrystalElement RectSequence Signature e f reflection signature young_w0",
    "demazure": "AffineWeight FormalCharacter crystal_side_character demazure_character "
    "translation_reduced_word",
    "energy": "classical_charge charge_word energy_terms local_H tableau_energy "
    "total_energy",
    "errors": "InconsistentPairError NonLRError NotPartitionOfNError RectcrysError "
    "RowNError ShapeMismatchError",
    "kpoly": "GradedCharacter LaurentPolynomial graded_character k_polynomial "
    "kostka_foulkes monotonicity_check",
    "rmatrix": "sigma_compose sigma_swap tau_swap",
    "rsk": "LRTableau TableauPair enumerate_lrt is_r_lr rsk_inverse rsk_pair",
    "tableaux": "Tableau antinormal column_insert conjugate enumerate_cst key partition "
    "partitions_of",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


class TestLazyNamespace:
    def test_every_old_name_is_exported(self):
        assert len(NAMES) == 57
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


class TestClearCaches:
    def test_empties_every_memo(self):
        seq = RectSequence([(1, 3), (2, 1), (1, 2), (1, 1)])
        before = k_polynomial((4, 2, 1, 1), seq)
        graded_character(seq)
        demazure_character(2, (2, 1), 3)
        assert verify_energy(3, 5).ok
        memos = {
            id(obj): obj
            for name, module in list(sys.modules.items())
            if name.startswith("rectcrys.")
            for obj in vars(module).values()
            if callable(getattr(obj, "cache_info", None))
        }.values()
        # 8 unbounded memos and 6 bounded: kpoly._k_counts (the Kostka map
        # per multiset of R) at 256; rmatrix._peel_plan at 1024; and
        # crystal._interned (one RectSequence per rectangle tuple; verify all
        # at n <= 4, <= 8 cells builds 1,208), energy._lrt_energies (the per-R
        # tableau memo), rmatrix._sigma_pair and tableaux.insertion_shape at
        # 2048
        assert len(memos) == 14 and any(memo.cache_info().currsize for memo in memos)
        assert sum(memo.cache_info().maxsize is None for memo in memos) == 8
        assert kpoly._k_counts in memos and kpoly._k_counts.cache_info().currsize
        assert crystal._interned in memos and crystal._interned.cache_info().currsize
        rectcrys.clear_caches()
        assert [memo for memo in memos if memo.cache_info().currsize] == []
        assert k_polynomial((4, 2, 1, 1), seq) == before

    def test_imports_no_module(self):
        # so that the CLI's cold-start module set does not change
        code = (
            "import sys, rectcrys; before = set(sys.modules); rectcrys.clear_caches(); "
            "assert set(sys.modules) == before, set(sys.modules) - before"
        )
        src = os.path.dirname(os.path.dirname(rectcrys.__file__))
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)


SEQ = RectSequence([(2, 2), (1, 1)])
ELEMENT = CrystalElement(SEQ, [Tableau([[1, 1], [2, 3]], n=3), Tableau([[2]], n=3)])
PAIR = rsk_pair(ELEMENT)
# Each value type once, with its repr as a frozen dataclass printed it.
VALUES = [
    (SEQ, "RectSequence([(2, 2), (1, 1)])"),
    (
        crystal._signature(crystal._word_pairs((1, 2, 2, 1, 1), 1)),
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
    (LaurentPolynomial({-1: 1, 0: 3, 2: -2}), "q^-1 + 3 - 2*q^2"),
    (
        graded_character(RectSequence([(1, 2), (1, 1), (1, 1)])),
        "GradedCharacter([2, 1, 1]: 1, [2, 2]: q, [3, 1]: q + q^2, [4]: q^3)",
    ),
]
FIELDS = {
    RectSequence: ("rects",),
    Signature: ("phi", "eps", "f_pos", "e_pos", "reduced"),
    TableauPair: ("p", "q"),
    LRTableau: ("tableau", "seq"),
    PromotionTrace: ("removed_strip", "ejected", "intermediate", "added_strip"),
    LaurentPolynomial: ("coeffs",),
    GradedCharacter: ("terms",),
}


def same_fields(value):
    cls = type(value)
    return cls(*(getattr(value, name) for name in FIELDS[cls]))


def hash_key(value):
    """What a value hashes as: the tuple of its fields, or a polynomial's
    sorted terms, since its read-only map of terms does not hash."""
    if isinstance(value, LaurentPolynomial):
        return tuple(sorted(value.coeffs.items()))
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


@pytest.mark.parametrize("value, text", VALUES, ids=lambda v: type(v).__name__)
class TestValueTypes:
    def test_repr(self, value, text):
        assert repr(value) == text

    def test_equality_and_hash_by_fields(self, value, text):
        fields = tuple(getattr(value, name) for name in FIELDS[type(value)])
        twin = same_fields(value)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value) == hash(hash_key(value))
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


def test_constructor_checks():
    with pytest.raises(ShapeMismatchError):
        TableauPair(PAIR.p, Tableau([[1, 2]], n=3))
    with pytest.raises(NonLRError):
        LRTableau(Tableau([[1, 1]], n=2), RectSequence([(1, 1), (1, 1)]))
    with pytest.raises(ValueError):
        RectSequence([(0, 1)])
