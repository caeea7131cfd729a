"""Fast paths checked against the slow paths they replace.

Precomputed RectSequence data against the sums it replaces, tableaux built
by the trusted constructor against the checked public constructor, the
code-indexed FastCrystal arrays (signatures, operator images, weights and
promotion) against the element routes of crystal.py and, at color 0,
affine.py, the one-lift energy path against the checked rsk_inverse, and
tau read back off the switched lift against tau by insertion.
"""

import pickle
from itertools import product

import pytest

from rectcrys import affine, crystal, demazure, energy, kpoly, rmatrix, rsk, tableaux
from rectcrys.affine import promote_inverse_tableau, promote_tableau
from rectcrys.crystal import RectSequence, signature
from rectcrys.errors import NonLRError
from rectcrys.kpoly import k_polynomial
from rectcrys.rmatrix import sigma_swap, tau_swap
from rectcrys.rsk import LRTableau, TableauPair, _lift, _unlift, rsk_inverse, rsk_pair
from rectcrys.tableaux import Tableau, _col_insert, enumerate_cst, key
from rectcrys.verify import FastCrystal, rect_sequences, verify_rmatrix

from conftest import lr_family
from oracles import content, enumerate_crystal, eps0, phi0, tableau_from_cells, tau_by_insertion

# Rectangles (eta, mu) and alphabet sizes n <= 4.
SHAPES = [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (4, 1)]
PAIRS = [[(1, 2), (2, 1)], [(2, 2), (1, 1)], [(1, 3), (1, 1)], [(2, 1), (2, 2)]]
CRYSTALS = PAIRS + [[(1, 1), (1, 1), (1, 2)], [(1, 1), (2, 1), (1, 1)]]


def assert_as_checked(t: Tableau, n: int) -> None:
    """t equals the tableau the checked constructor builds from its rows."""
    checked = Tableau(t.rows, t.inner, n=n)
    assert t == checked
    assert (t.outer, t.inner, t.n) == (checked.outer, checked.inner, checked.n)


class TestRectSequencePrecomputed:
    def test_matches_sums(self):
        for seq in rect_sequences(4, 6):
            rects = seq.rects
            assert seq.n == sum(e for e, _ in rects)
            gamma = []
            for j, (e, m) in enumerate(rects, start=1):
                lo = 1 + sum(e_ for e_, _ in rects[: j - 1])
                assert seq.subalphabet(j) == (lo, lo + e - 1)
                assert seq.key_tableau(j) == key((m,) * e, n=seq.n, offset=lo - 1)
                gamma.extend([m] * e)
            assert seq.gamma() == tuple(gamma)

    def test_pickle_round_trip(self):
        for seq in rect_sequences(4, 6):
            back = pickle.loads(pickle.dumps(seq))
            assert back == seq and hash(back) == hash(seq)
            assert repr(back) == repr(seq)
            assert (back.n, back.gamma()) == (seq.n, seq.gamma())
            assert [back.subalphabet(j) for j in range(1, seq.m + 1)] == [
                seq.subalphabet(j) for j in range(1, seq.m + 1)
            ]


class TestTrustedConstruction:
    @pytest.mark.parametrize("eta, mu", SHAPES)
    def test_enumerate_and_promote(self, eta, mu):
        for n in range(eta, 5):
            for t in enumerate_cst((mu,) * eta, n):
                assert_as_checked(t, n)
                assert_as_checked(promote_tableau(t, n), n)
                assert_as_checked(promote_inverse_tableau(t, n), n)

    @pytest.mark.parametrize("rects", PAIRS)
    def test_sigma_swap_factors(self, rects):
        seq = RectSequence(rects)
        for b in enumerate_crystal(seq):
            for t in sigma_swap(b, 1).factors:
                assert_as_checked(t, seq.n)

    @pytest.mark.parametrize("rects", CRYSTALS)
    def test_rsk_recording(self, rects):
        seq = RectSequence(rects)
        n = seq.n
        for b in enumerate_crystal(seq):
            q = rsk_pair(b).q
            assert_as_checked(q, n)
            # the cell-map route the recording tableau used to take
            cols: list[list[int]] = []
            recording = {}
            for r, row in enumerate((row for t in b.factors for row in t.rows), start=1):
                for x in reversed(row):
                    recording[_col_insert(cols, x)] = r
            old = tableau_from_cells(recording, n=n)
            assert q == old and (q.outer, q.inner, q.n) == (old.outer, old.inner, old.n)


class TestFastCrystalSignature:
    @pytest.mark.parametrize("rects", CRYSTALS + [[(3, 1), (1, 2)]])
    def test_matches_signature_rule(self, rects):
        fc = FastCrystal(RectSequence(rects))
        for (code, el), i in product(enumerate(fc.elements), range(1, fc.n)):
            sig = signature(fc.to_element(el), i)
            want = (sig.phi, sig.eps, sig.f_pos, sig.e_pos)
            assert fc.signature(el, i) == want
            assert fc.color(i)[0][code] == want

    @pytest.mark.parametrize("rects", CRYSTALS)
    def test_color_zero_matches_affine(self, rects):
        fc = FastCrystal(RectSequence(rects))
        elements = fc.elements
        sigs, f_img, e_img = fc.color(0)
        for code, el in enumerate(elements):
            b = fc.to_element(el)
            phi_, eps_, _, _ = fc.signature(el, 0)
            assert (phi_, eps_) == sigs[code][:2] == (phi0(b), eps0(b))
            for got, want in ((e_img[code], affine.e0(b)), (f_img[code], affine.f0(b))):
                assert (None if got is None else fc.to_element(elements[got])) == want


class TestFastCrystalArrays:
    def test_match_element_routes(self):
        """Every array of every color, the weights and the promotion
        permutation, on every element, against crystal.py and affine.py."""
        for seq in rect_sequences(3, 5):
            fc = FastCrystal(seq)
            elements = [fc.to_element(el) for el in fc.elements]
            assert [elements[c] for c in fc.promotion] == [affine.promote(b) for b in elements]
            assert fc.weights == [content(b) for b in elements]
            for i in range(seq.n):
                sigs, f_img, e_img = fc.color(i)
                for code, b in enumerate(elements):
                    if i:
                        sig = signature(b, i)
                        want = ((sig.phi, sig.eps), crystal.f(b, i), crystal.e(b, i))
                    else:
                        want = ((phi0(b), eps0(b)), affine.f0(b), affine.e0(b))
                    images = (None if c is None else elements[c] for c in (f_img[code], e_img[code]))
                    assert (sigs[code][:2], *images) == want


class TestLift:
    def test_matches_rsk_inverse(self):
        for seq, t in lr_family(4, 7, 3):
            want = rsk_inverse(TableauPair(key(t.outer, n=seq.n), t), seq)
            assert _lift(t, seq) == want

    def test_checked_paths_reject(self):
        seq = RectSequence([(2, 1), (1, 1)])
        not_lr = Tableau([[1, 2], [3]], n=3)  # content gamma, not LR
        wrong_content = Tableau([[1, 1], [3]], n=3)
        for q in (not_lr, wrong_content):
            with pytest.raises(NonLRError):
                LRTableau(q, seq)
            with pytest.raises(NonLRError):
                rsk_inverse(TableauPair(key(q.outer, n=3), q), seq)

    def test_skew_tableau_rejected(self):
        # its rows read as a normal shape would be the LR tableau [[1], [2]]
        with pytest.raises(NonLRError):
            LRTableau(Tableau([[1], [2]], inner=[1]), RectSequence([(1, 1), (1, 1)]))

    def test_unlift_inverts_lift(self):
        count = 0
        for seq, t in lr_family(4, 7, 1):
            rows = [row for factor in _lift(t, seq).factors for row in factor.rows]
            assert _unlift(rows, seq.n) == t
            count += 1
        assert count == 1371

    def test_tau_matches_insertion_route(self):
        count = 0
        for seq, t in lr_family(4, 7, 2):
            q = LRTableau._raw(t, seq)
            for pos in range(1, seq.m):
                assert tau_swap(q, pos).tableau == tau_by_insertion(q, pos)
                count += 1
        assert count == 3304

    def test_wrong_read_back_fails_rmatrix_suite(self, monkeypatch):
        # the labels of the first two rows exchanged: the rmatrix suite's
        # checked tau rejects the result
        def exchanged(rows, n):
            return _unlift([rows[1], rows[0], *rows[2:]], n)

        monkeypatch.setattr(rmatrix, "_unlift", exchanged)
        with pytest.raises(NonLRError):
            verify_rmatrix(3, 5)


MODULES = (affine, crystal, demazure, energy, kpoly, rmatrix, rsk, tableaux)


def clear_memos():
    for mod in MODULES:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@pytest.fixture
def lr_calls(monkeypatch):
    """Every (word, rects) that is_r_lr tests, with cold memos; rsk_inverse
    must not run."""
    calls = []
    real = rsk.is_r_lr

    def counted(u, s):
        calls.append((tuple(u), s.rects))
        return real(u, s)

    def no_inverse(*args, **kwargs):
        raise AssertionError("rsk_inverse called")

    for mod in MODULES:
        if hasattr(mod, "is_r_lr"):
            monkeypatch.setattr(mod, "is_r_lr", counted)
        if hasattr(mod, "rsk_inverse"):
            monkeypatch.setattr(mod, "rsk_inverse", no_inverse)
    clear_memos()
    yield calls
    clear_memos()


class TestNoRechecks:
    @pytest.mark.parametrize(
        "lam, rects",
        [
            ((3, 1, 1), [(1, 2), (2, 1), (1, 1)]),
            ((3, 2), [(1, 2), (1, 1), (1, 2)]),
            ((2, 2, 1), [(1, 1)] * 5),
            ((3, 1, 1), [(1, 1), (1, 2), (1, 1), (1, 1)]),
            ((2, 2), [(2, 1), (2, 1)]),
        ],
    )
    def test_one_lr_test_per_candidate(self, lr_calls, lam, rects):
        # LR tableaux are generated, not filtered: neither the enumeration
        # of LRT(lam; R) nor those the switches make test a word
        seq = RectSequence(rects)
        assert k_polynomial(lam, seq).coeffs
        assert lr_calls == []

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_monotonicity_tests_each_word_once(self, lr_calls, position):
        seq = RectSequence([(1, 2), (1, 1), (1, 1)])
        rep = kpoly.monotonicity_check((2, 1, 1), seq, 2, 1, position=position)
        assert rep.holds and rep.injection
        assert len(set(lr_calls)) == len(lr_calls)
