import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from oracles import fraction_translate_point, fraction_wall_walk, straighten_by_inversions
from rectcrys.demazure import (
    AffineWeight,
    FormalCharacter,
    _classical_roots,
    _straighten,
    _translate_point,
    _wall_walk,
    cartan_entry,
    crystal_side_character,
    demazure_character,
    translation_length,
    translation_reduced_word,
    translation_vector,
)
from rectcrys.errors import NotPartitionOfNError
from rectcrys.kpoly import GradedCharacter, character_weights
from rectcrys.laurent import LaurentPolynomial
from rectcrys.tableaux import enumerate_cst, partitions_of


def coeff(w, i):
    """Coefficient of the i-th fundamental weight in w; equals <h_i, w>."""
    return w.lam0 if i == 0 else w.finite[i - 1]


def fundamental(n, i):
    """Lambda_i as an AffineWeight."""
    return AffineWeight(n, int(i == 0), tuple(int(j == i) for j in range(1, n)), 0)


def simple_root(n, i):
    """alpha_i = sum_j a_{ij} Lambda_j, plus delta when i = 0, written out
    from the Cartan matrix of the n-cycle: 2 on the diagonal, -1 for each
    neighbour of i on the cycle (twice the one neighbour when n = 2)."""
    row = [0] * n
    row[i] += 2
    row[(i + 1) % n] -= 1
    row[(i - 1) % n] -= 1
    return AffineWeight(n, row[0], tuple(row[1:]), int(i == 0))


def add(w, v, scale=1):
    """w + scale * v."""
    return AffineWeight(
        w.n,
        w.lam0 + scale * v.lam0,
        tuple(a + scale * b for a, b in zip(w.finite, v.finite)),
        w.delta + scale * v.delta,
    )


def simple_reflection_weight(w, i):
    """r_i(w) = w - <h_i, w> alpha_i."""
    return add(w, simple_root(w.n, i), -coeff(w, i))


def reflect_vector(v, i):
    """The affine Weyl group on sum-zero vectors: classical reflections swap
    adjacent coordinates, and r_0 swaps the outer ones across a shifted wall."""
    v = list(v)
    if i == 0:
        v[0], v[-1] = v[-1] + 1, v[0] - 1
    else:
        v[i - 1], v[i] = v[i], v[i - 1]
    return tuple(v)


def apply_word_to_vector(word, v):
    """Apply reflections right to left, matching the group element of the word."""
    for i in reversed(word):
        v = reflect_vector(v, i)
    return v


def full_word_character(level, mu, n):
    """The Demazure character by every operator of the translation's reduced
    word, as FormalCharacter terms."""
    ch = FormalCharacter(n, {(level,) + (0,) * n: 1})
    for i in reversed(translation_reduced_word(mu, n)):
        ch = ch.demazure_op(i)
    return ch.terms


def expanded_terms(gc, level, n):
    """The weights of a graded character, irreducible by irreducible and
    degree by degree, as FormalCharacter terms (q is the exponential of
    -delta)."""
    acc = {}
    for lam, poly in gc.terms:
        for wt, m in character_weights(lam, n).items():
            fin = tuple(a - b for a, b in zip(wt, wt[1:]))
            for degree, c in poly.coeffs.items():
                key = (level - sum(fin), *fin, -degree)
                acc[key] = acc.get(key, 0) + m * c
    return {w: c for w, c in acc.items() if c}


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
        k = coeff(w, i)
        if k >= 0:
            for t in range(k + 1):
                v = add(w, alpha, -t)
                acc[v] = acc.get(v, 0) + c
        elif k <= -2:
            for t in range(1, -k):
                v = add(w, alpha, t)
                acc[v] = acc.get(v, 0) - c
    return {w: c for w, c in acc.items() if c}


class TestWeights:
    def test_cartan_small_rank(self):
        assert cartan_entry(2, 0, 1) == -2  # the doubled bond of the rank-one cycle
        assert cartan_entry(3, 0, 2) == -1
        assert cartan_entry(4, 0, 2) == 0

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
                total = add(total, simple_root(n, i))
            assert total == delta
            for i in range(n):
                assert simple_reflection_weight(delta, i) == delta

    def test_classical_roots_match_cartan_matrix(self):
        for n in (2, 3, 4, 5):
            roots = [simple_root(n, i) for i in range(n)]
            assert _classical_roots(n) == tuple((a.lam0, *a.finite) for a in roots)
            assert [sum(col) for col in zip(*_classical_roots(n))] == [0] * n


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


def keyed(terms):
    """AffineWeight-keyed terms as the tuple-keyed ``terms`` view."""
    return {(w.lam0, *w.finite, w.delta): c for w, c in terms.items()}


class TestPackedGrading:
    """Each classical weight keeps its delta grading in one int of 64-bit
    digits; these cases break if a color-0 step may shift a digit out, or if
    a digit cannot hold a coefficient of 2**40."""

    BIG = 2**40

    def test_color0_raises_delta_without_loss(self):
        # lam0 = -6 raises delta by up to 5, from two degrees of one weight
        # and from a second weight whose lowest degree sits far below
        terms = {
            AffineWeight(3, -6, (1, 2), 0): 3,
            AffineWeight(3, -6, (1, 2), -1): -self.BIG,
            AffineWeight(3, -6, (0, 0), -4): self.BIG + 1,
            AffineWeight(3, 2, (-1, 0), 1): 1,
        }
        want = oracle_demazure_op(terms, 3, 0)
        got = FormalCharacter(3, terms).demazure_op(0)
        assert got.terms == keyed(want)
        assert got == FormalCharacter(3, want)

    def test_large_coefficients_survive_every_color(self):
        terms = {
            AffineWeight(3, 2, (0, 0), 0): self.BIG,
            AffineWeight(3, -3, (2, 3), -1): -self.BIG - 5,
            AffineWeight(3, -2, (1, 3), -2): 7,
        }
        want, got = terms, FormalCharacter(3, terms)
        for i in (0, 1, 2, 0, 1, 0, 2):
            want = oracle_demazure_op(want, 3, i)
            got = got.demazure_op(i)
            assert got.terms == keyed(want)

    def test_padding_is_invisible(self):
        # the op lifts the grading by the rise of 2 at lam0 = -3, while the
        # top terms, at delta 0, rise by 1 (lam0 = -2) or vanish (lam0 = -1):
        # the result carries an unused digit above its highest delta, 1
        terms = {
            AffineWeight(2, -1, (2,), 0): self.BIG,
            AffineWeight(2, -2, (3,), 0): self.BIG,
            AffineWeight(2, -3, (4,), -5): self.BIG,
        }
        padded = FormalCharacter(2, terms).demazure_op(0)
        fresh = FormalCharacter(2, padded.terms)
        assert padded._hi > fresh._hi
        assert padded.terms == fresh.terms == keyed(oracle_demazure_op(terms, 2, 0))
        assert padded == fresh and fresh == padded
        lowered = FormalCharacter(2, {(*w[:2], w[2] - 1): c for w, c in fresh.terms.items()})
        assert padded != lowered and lowered != padded

    def test_rejects_coefficients_beyond_a_digit(self):
        with pytest.raises(ValueError, match="outside"):
            FormalCharacter(2, {(1, 0, 0): 2**63})
        assert FormalCharacter(2, {(1, 0, 0): -(2**63)}).terms == {(1, 0, 0): -(2**63)}

    def test_straighten_rejects_positive_delta(self):
        # n = 2, level 1: lam0 = -3 gives w + alpha_0 and w + 2 alpha_0, at
        # delta 1 and 2; the weight itself straightens to a partition
        ch = FormalCharacter(2, {(-3, 4, 0): 1})
        with pytest.raises(ValueError, match="positive delta coefficient"):
            _straighten(ch.demazure_op(0), 1)
        with pytest.raises(ValueError, match="positive delta coefficient"):
            _straighten(FormalCharacter(2, {(1, 0, 1): self.BIG}), 1)


class TestTranslationWords:
    def test_integer_walk_matches_fraction_walk(self):
        for n in range(2, 9):
            for mu in partitions_of(n, n):
                point = fraction_translate_point(mu, n)
                assert translation_reduced_word(mu, n) == fraction_wall_walk(list(point))
                coset = _wall_walk(sorted(_translate_point(mu, n), reverse=True))
                assert coset == fraction_wall_walk(sorted(point, reverse=True)), (n, mu)

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
        assert dict(gc.terms) == {
            (1, 1): LaurentPolynomial({0: 1}),
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
                assert all(e >= 0 for e in poly.coeffs)
                assert all(c > 0 for c in poly.coeffs.values())

    def test_dimension_specialization(self):
        for n, level, mu in [(2, 1, (1, 1)), (3, 1, (2, 1)), (3, 2, (1, 1, 1))]:
            gc = demazure_character(level, mu, n)
            total = sum(
                sum(poly.coeffs.values()) * len(list(enumerate_cst(lam, n))) for lam, poly in gc.terms
            )
            expected = 1
            for part in mu:
                expected *= len(list(enumerate_cst((level,) * part, n)))
            assert total == expected

    def test_matches_crystal_route(self):
        cases = [(n, level) for n in (2, 3, 4) for level in (1, 2)] + [(6, 2)]
        for n, level in cases:
            for mu in partitions_of(n, n):
                assert demazure_character(level, mu, n) == crystal_side_character(
                    level, mu
                ), (n, level, mu)

    def test_refuses_coefficients_past_a_digit(self):
        # the bound on |B^R| at n = 11, level 2, comb(12, 2)**11 = 66**11,
        # passes 2**63
        with pytest.raises(ValueError, match="past a packed coefficient"):
            demazure_character(2, (1,) * 11, 11)

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_small_n(self, n):
        mu = (1,) * n
        with pytest.raises(ValueError, match="n must be at least 2"):
            translation_reduced_word(mu, n)
        with pytest.raises(ValueError, match="n must be at least 2"):
            demazure_character(1, mu, n)

    def test_matches_committed_n6_level2_characters(self):
        # every mu of 6 at level 2, against the committed characters
        fixture = load_fixture("demazure_n6_level2.json")
        assert (fixture["n"], fixture["level"]) == (6, 2)
        mus = list(partitions_of(6, 6))
        assert sorted(fixture["characters"]) == sorted(",".join(map(str, mu)) for mu in mus)
        for mu in mus:
            assert demazure_character(2, mu, 6).to_json() == fixture["characters"][",".join(map(str, mu))], mu

    def test_matches_full_translation_word(self):
        # The oracle: every operator of the translation's word, compared
        # weight by weight with the irreducibles expanded, checks both the
        # W_fin-invariance the coset word relies on and the multiplicities.
        cases = [(n, level) for n in (2, 3, 4, 5) for level in (1, 2)]
        cases += [(n, 3) for n in (2, 3, 4)]
        for n, level in cases:
            for mu in partitions_of(n, n):
                gc = demazure_character(level, mu, n)
                assert expanded_terms(gc, level, n) == full_word_character(
                    level, mu, n
                ), (n, level, mu)

    def test_straighten_rejects_non_characters(self):
        # n = 2, level 1: finite weight (2,) is lam = (2,), (0,) is (1, 1),
        # and (-2,) straightens to minus the character of (1, 1)
        def character(weights):
            return FormalCharacter(2, {(1 - fin, fin, 0): c for fin, c in weights.items()})

        gc = _straighten(character({2: 1, 0: 2, -2: 1}), 1)
        assert dict(gc.terms) == {
            (2,): LaurentPolynomial({0: 1}),
            (1, 1): LaurentPolynomial({0: 1}),
        }
        with pytest.raises(ValueError, match="negative multiplicity"):
            _straighten(character({2: 1, -2: 1}), 1)
        with pytest.raises(ValueError, match="no partition"):
            _straighten(character({1: 1}), 1)


def _inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


@st.composite
def straighten_cases(draw):
    """(n, level, terms) of a character to straighten, at n = 2..7 and
    levels 1..3.  Its weights are images sigma(lam + rho) - rho of dominant
    lam, each with the sign of sigma so that it adds to lam's character;
    pairs of such images one reflection apart, with one coefficient, which
    cancel; weights whose lam + rho repeats an entry; and, in a raw case,
    weights of any lam of the right size with any sign, which may leave a
    negative multiplicity.  Each weight sits at one to three deltas, so
    its grading takes several digits, and lam0, which straightening does
    not read, is drawn at random."""
    n = draw(st.integers(2, 7))
    level = draw(st.integers(1, 3))
    size = level * n
    rho = list(range(n - 1, -1, -1))
    raw = draw(st.booleans())
    terms = {}

    def put(lam, c):
        fin = tuple(a - b for a, b in zip(lam, lam[1:]))
        lam0 = draw(st.integers(-3, 3))
        for delta in draw(st.sets(st.integers(-6, 0), min_size=1, max_size=3)):
            key = (lam0, *fin, delta)
            terms[key] = terms.get(key, 0) + c

    def composition():
        cuts = sorted(draw(st.lists(st.integers(0, size), min_size=n - 1, max_size=n - 1)))
        return [b - a for a, b in zip([0, *cuts], [*cuts, size])]

    coefficients = st.integers(1, 3) | st.just(2**40)
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["image", "pair", "vanishing", "raw"] if raw else ["image", "pair", "vanishing"]))
        lam = composition()
        if kind in ("vanishing", "raw"):
            if kind == "raw":
                lam[:-1] = [draw(st.integers(-2, level + 2)) for _ in range(n - 1)]
                lam[-1] = size - sum(lam[:-1])
            elif len({a + r for a, r in zip(lam, rho)}) == n:
                continue
            put(lam, draw(coefficients) * draw(st.sampled_from([1, -1])))
            continue
        x = [a + r for a, r in zip(sorted(lam, reverse=True), rho)]
        perm = draw(st.permutations(range(n)))
        sign = -1 if _inversions(perm) % 2 else 1
        c = sign * draw(coefficients)
        put([x[k] - r for k, r in zip(perm, rho)], c)
        if kind == "pair":
            i = draw(st.integers(0, n - 2))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            put([x[k] - r for k, r in zip(perm, rho)], c)
    return n, level, terms


class TestStraightenOracle:
    @settings(max_examples=300, deadline=None)
    @given(straighten_cases())
    def test_matches_term_by_term_oracle(self, case):
        # the same characters, or a ValueError from both
        n, level, terms = case
        ch = FormalCharacter(n, terms)
        try:
            want = straighten_by_inversions(ch, level)
        except ValueError:
            with pytest.raises(ValueError):
                _straighten(ch, level)
        else:
            assert _straighten(ch, level) == want

    def test_oracle_sign_on_a_transposition(self):
        # n = 3, level 1: lam = (0, 2, 1) is s_1 . (1, 1, 1), so it
        # straightens to minus the character of (1, 1, 1), the parity of the
        # decreasing sort of lam + rho = (2, 3, 1); its increasing sort has
        # the other parity, as n(n-1)/2 = 3 is odd
        ch = FormalCharacter(3, {(1, -2, 1, 0): 1, (1, 0, 0, 0): 2})
        want = GradedCharacter((((1, 1, 1), LaurentPolynomial({0: 1})),))
        assert _straighten(ch, 1) == straighten_by_inversions(ch, 1) == want
