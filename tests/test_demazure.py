import random

import pytest

from rectcrys.demazure import (
    AffineWeight,
    FormalCharacter,
    _peel,
    apply_word_to_vector,
    cartan_entry,
    crystal_side_character,
    demazure_character,
    fundamental,
    simple_reflection_weight,
    simple_root,
    translation_length,
    translation_reduced_word,
    translation_vector,
)
from rectcrys.errors import NotPartitionOfNError
from rectcrys.laurent import LaurentPolynomial
from rectcrys.tableaux import enumerate_cst, partitions_of


def random_weight(rng, n):
    return AffineWeight(
        n,
        rng.randint(-2, 2),
        tuple(rng.randint(-2, 2) for _ in range(n - 1)),
        rng.randint(-1, 1),
    )


def random_terms(rng, n, terms=4):
    return {random_weight(rng, n): rng.randint(1, 3) for _ in range(terms)}


def random_character(rng, n, terms=4):
    return FormalCharacter(n, random_terms(rng, n, terms))


def oracle_demazure_op(terms, n, i):
    """The Demazure operator on AffineWeight-keyed terms, written directly
    from the geometric-series formula."""
    alpha = simple_root(n, i)
    acc = {}
    for w, c in terms.items():
        k = w.coeff(i)
        if k >= 0:
            for t in range(k + 1):
                v = w.add(alpha, -t)
                acc[v] = acc.get(v, 0) + c
        elif k <= -2:
            for t in range(1, -k):
                v = w.add(alpha, t)
                acc[v] = acc.get(v, 0) - c
    return {w: c for w, c in acc.items() if c}


class TestWeights:
    def test_cartan_small_rank(self):
        assert cartan_entry(2, 0, 1) == -2  # the doubled bond of the rank-one cycle
        assert cartan_entry(3, 0, 2) == -1
        assert cartan_entry(4, 0, 2) == 0

    def test_fundamental_pairings(self):
        for n in (2, 3, 4):
            for i in range(n):
                for j in range(n):
                    assert fundamental(n, j).coeff(i) == (1 if i == j else 0)

    def test_reflection_involutive(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(20):
                w = random_weight(rng, n)
                for i in range(n):
                    assert simple_reflection_weight(
                        simple_reflection_weight(w, i), i
                    ) == w

    def test_null_root_fixed(self):
        for n in (2, 3, 4):
            delta = AffineWeight(n, 0, (0,) * (n - 1), 1)
            # delta is the sum of all simple roots and pairs to zero everywhere
            total = simple_root(n, 0)
            for i in range(1, n):
                total = total.add(simple_root(n, i))
            assert total == delta
            for i in range(n):
                assert simple_reflection_weight(delta, i) == delta


class TestFormalCharacter:
    def test_keys_from_weights(self):
        w = AffineWeight(3, 2, (0, -1), 1)
        assert FormalCharacter(3, {w: 2}).terms == {(2, 0, -1, 1): 2}
        assert FormalCharacter(3, {w: 2}) == FormalCharacter(3, {(2, 0, -1, 1): 2})
        assert FormalCharacter.exponential(w) == FormalCharacter(3, {w: 1})

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FormalCharacter(3, {AffineWeight(2, 1, (0,), 0): 1})
        with pytest.raises(ValueError):
            FormalCharacter(3, {(1, 0, 0): 1})


class TestDemazureOperator:
    def test_matches_weight_oracle(self):
        rng = random.Random(17)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                terms = random_terms(rng, n)
                want, got = terms, FormalCharacter(n, terms)
                for _ in range(4):
                    i = rng.randrange(n)
                    want = oracle_demazure_op(want, n, i)
                    got = got.demazure_op(i)
                    assert got == FormalCharacter(n, want)

    def test_spreads_one_step(self):
        for n in (2, 3):
            for i in range(n):
                ch = FormalCharacter.exponential(fundamental(n, i))
                out = ch.demazure_op(i)
                assert len(out.terms) == 2

    def test_fixes_orthogonal(self):
        ch = FormalCharacter.exponential(fundamental(3, 0))
        assert ch.demazure_op(1) == ch

    def test_idempotent(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(10):
                ch = random_character(rng, n)
                for i in range(n):
                    once = ch.demazure_op(i)
                    assert once.demazure_op(i) == once

    def test_braid_and_commutation(self):
        rng = random.Random(13)
        for n in (3, 4):
            for _ in range(8):
                ch = random_character(rng, n)
                for i in range(n):
                    j = (i + 1) % n
                    lhs = ch.demazure_op(i).demazure_op(j).demazure_op(i)
                    rhs = ch.demazure_op(j).demazure_op(i).demazure_op(j)
                    assert lhs == rhs
        for _ in range(8):
            ch = random_character(rng, 4)
            lhs = ch.demazure_op(1).demazure_op(3)
            assert lhs == ch.demazure_op(3).demazure_op(1)


class TestTranslationWords:
    def test_identity_translation(self):
        # the one-column partition gives the zero weight
        assert translation_vector((2,), 2) == (0, 0)
        assert translation_reduced_word((2,), 2) == []
        assert translation_vector((3,), 3) == (0, 0, 0)

    def test_antidominant(self):
        for n, mu in [(2, (1, 1)), (3, (2, 1)), (3, (1, 1, 1)), (4, (2, 2))]:
            t = translation_vector(mu, n)
            assert sum(t) == 0
            assert all(t[i] <= t[i + 1] for i in range(n - 1))

    def test_word_realizes_translation(self):
        for n, mu in [(2, (1, 1)), (3, (2, 1)), (3, (1, 1, 1)), (4, (2, 1, 1))]:
            word = translation_reduced_word(mu, n)
            t = translation_vector(mu, n)
            basis = [tuple(0 for _ in range(n))]
            for k in range(n - 1):
                v = [0] * n
                v[k], v[k + 1] = 1, -1
                basis.append(tuple(v))
            for v in basis:
                moved = apply_word_to_vector(word, v)
                assert moved == tuple(x + tx for x, tx in zip(v, t))

    def test_length_equals_separating_count(self):
        for n, mu in [(2, (1, 1)), (3, (2, 1)), (3, (1, 1, 1)), (4, (3, 1))]:
            word = translation_reduced_word(mu, n)
            assert len(word) == translation_length(translation_vector(mu, n))

    def test_rejects_bad_partition(self):
        with pytest.raises(NotPartitionOfNError):
            translation_reduced_word((2, 2), 3)


class TestDemazureCharacter:
    def test_worked_small_case(self):
        gc = demazure_character(1, (1, 1), 2)
        assert gc.as_dict() == {
            (1, 1): LaurentPolynomial.one(),
            (2,): LaurentPolynomial({1: 1}),
        }

    def test_shapes_range_over_ln(self):
        for n, level, mu in [(2, 2, (1, 1)), (3, 1, (2, 1))]:
            gc = demazure_character(level, mu, n)
            for lam, _ in gc.terms:
                assert sum(lam) == level * n and len(lam) <= n

    def test_polynomial_and_nonnegative(self):
        for n, level, mu in [(2, 2, (1, 1)), (3, 2, (2, 1)), (3, 1, (1, 1, 1))]:
            gc = demazure_character(level, mu, n)
            for _, poly in gc.terms:
                assert poly.is_polynomial()
                assert all(c > 0 for c in poly.coeffs.values())

    def test_dimension_specialization(self):
        for n, level, mu in [(2, 1, (1, 1)), (3, 1, (2, 1)), (3, 2, (1, 1, 1))]:
            gc = demazure_character(level, mu, n)
            total = sum(
                poly(1) * len(list(enumerate_cst(lam, n))) for lam, poly in gc.terms
            )
            expected = 1
            for part in mu:
                expected *= len(list(enumerate_cst((level,) * part, n)))
            assert total == expected

    def test_matches_crystal_route(self):
        for n in (2, 3, 4):
            for level in (1, 2):
                for mu in partitions_of(n, n):
                    assert demazure_character(level, mu, n) == crystal_side_character(
                        level, mu
                    )

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_small_n(self, n):
        mu = (1,) * n
        with pytest.raises(ValueError, match="n must be at least 2"):
            translation_reduced_word(mu, n)
        with pytest.raises(ValueError, match="n must be at least 2"):
            demazure_character(1, mu, n)

    def test_peel_rejects_non_characters(self):
        # n = 2, size 2: finite weight (2,) is lam = (2,), (0,) is (1, 1)
        assert list(_peel({(2,): 1, (0,): 2, (-2,): 1}, 2, 2, 0)) == [
            ((2,), 1),
            ((1, 1), 1),
        ]
        with pytest.raises(ValueError, match="negative multiplicity"):
            list(_peel({(2,): 1, (-2,): 1}, 2, 2, 0))
        with pytest.raises(ValueError, match="no dominant weight"):
            list(_peel({(-2,): 1}, 2, 2, 0))
        with pytest.raises(ValueError, match="no partition"):
            list(_peel({(1,): 1}, 2, 2, 0))
