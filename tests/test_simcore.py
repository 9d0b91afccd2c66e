"""Line and fragment similarity against brute-force oracles and hand values."""

import math
import random

import pytest

from forkscan.simcore import (
    KS_THRESHOLD,
    EmptyFragmentError,
    SimilarityParams,
    fragment_similarity,
    levenshtein,
    reward_sweep,
    strsim,
)

from conftest import oracle_fragment_similarity, oracle_levenshtein, oracle_strsim

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789(){};=_ ."


def rand_string(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))


def rand_fragment(rng: random.Random, max_lines: int = 8, max_len: int = 40) -> list[str]:
    return [rand_string(rng, max_len) for _ in range(rng.randint(1, max_lines))]


class TestLevenshtein:
    def test_known_distances(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("flaw", "lawn") == 2
        assert levenshtein("abc", "abc") == 0

    def test_matches_full_matrix_oracle(self):
        rng = random.Random(1001)
        for _ in range(300):
            a = rand_string(rng, 60)
            b = rand_string(rng, 60)
            assert levenshtein(a, b) == oracle_levenshtein(a, b)

    def test_symmetry_and_triangle(self):
        rng = random.Random(1002)
        for _ in range(100):
            a, b, c = (rand_string(rng, 30) for _ in range(3))
            assert levenshtein(a, b) == levenshtein(b, a)
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestStrsim:
    def test_both_empty_is_identical(self):
        assert strsim("", "") == 1.0

    def test_one_empty(self):
        assert strsim("abcd", "") == 0.0
        assert strsim("", "x") == 0.0

    def test_identity(self):
        assert strsim("int nCheckDepth = 0;", "int nCheckDepth = 0;") == 1.0

    def test_matches_oracle(self):
        rng = random.Random(1003)
        for _ in range(200):
            a = rand_string(rng, 50)
            b = rand_string(rng, 50)
            assert strsim(a, b) == pytest.approx(oracle_strsim(a, b), abs=0)

    def test_bounds(self):
        rng = random.Random(1004)
        for _ in range(200):
            v = strsim(rand_string(rng, 50), rand_string(rng, 50))
            assert 0.0 <= v <= 1.0


class TestParams:
    def test_defaults(self):
        p = SimilarityParams()
        assert (p.r, p.t, KS_THRESHOLD) == (0.95, 0.40, 0.25)

    @pytest.mark.parametrize("kwargs", [
        {"r": -0.1}, {"r": 1.1}, {"t": 0.0}, {"t": 1.0},
        {"t": 0.2}, {"t": 0.24},  # below the key-statement gate
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SimilarityParams(**kwargs)


class TestFragmentSimilarity:
    def test_identity_is_one(self):
        frag = ["int a = 1;", "call(a);", "return a;"]
        assert fragment_similarity(frag, frag, SimilarityParams()) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyFragmentError):
            fragment_similarity([], ["x"], SimilarityParams())
        with pytest.raises(EmptyFragmentError):
            fragment_similarity(["x"], [], SimilarityParams())

    def test_two_line_swap_equals_r(self):
        # p=2 and both lines match exactly at offset 1: score = (r + r)/2 = r.
        frag = ["alpha = beta;", "gamma(delta);"]
        swapped = [frag[1], frag[0]]
        params = SimilarityParams(r=0.95)
        assert fragment_similarity(frag, swapped, params) == 0.95

    def test_adjacent_swap_formula(self):
        # Identical fragments with lines i, i+1 swapped: 1 - (2 - 2r)/p.
        frag = [f"unique_line_{i} = {i * 7};" for i in range(6)]
        swapped = list(frag)
        swapped[2], swapped[3] = swapped[3], swapped[2]
        params = SimilarityParams()
        expect = 1 - (2 - 2 * params.r) / len(frag)
        assert fragment_similarity(frag, swapped, params) == pytest.approx(
            expect, abs=1e-12
        )

    def test_permutation_law(self):
        rng = random.Random(1005)
        params = SimilarityParams()
        for _ in range(50):
            p = rng.randint(2, 8)
            frag = [f"line_{i}_{rand_string(rng, 20)}" for i in range(p)]
            perm = list(range(p))
            rng.shuffle(perm)
            target = [frag[perm[j]] for j in range(p)]
            # source line i sits at target position perm.index(i)
            expect = sum(params.r ** abs(i - perm.index(i)) for i in range(p)) / p
            got = fragment_similarity(frag, target, params)
            assert math.isclose(got, expect, abs_tol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(1006)
        params = SimilarityParams()
        for _ in range(100):
            src = rand_fragment(rng)
            tgt = rand_fragment(rng)
            assert fragment_similarity(src, tgt, params) == pytest.approx(
                oracle_fragment_similarity(src, tgt, params.r), abs=1e-12
            )

    def test_bounds(self):
        rng = random.Random(1007)
        params = SimilarityParams()
        for _ in range(100):
            score = fragment_similarity(
                rand_fragment(rng), rand_fragment(rng), params
            )
            assert 0.0 <= score <= 1.0

    def test_asymmetric_by_design(self):
        src = ["aaaa bbbb cccc;"]
        tgt = ["aaaa bbbb cccc;", "zzzz yyyy xxxx;"]
        params = SimilarityParams()
        assert fragment_similarity(src, tgt, params) == 1.0
        assert fragment_similarity(tgt, src, params) < 1.0

    def test_monotone_in_r(self):
        rng = random.Random(1008)
        for _ in range(50):
            src = rand_fragment(rng)
            tgt = rand_fragment(rng)
            scores = [
                fragment_similarity(src, tgt, SimilarityParams(r=r))
                for r in (0.15, 0.35, 0.55, 0.75, 0.95)
            ]
            assert scores == sorted(scores)


class TestRewardSweep:
    def test_shape_and_sorting(self):
        pairs = [
            (["a line;"], ["a line;"]),
            (["one;", "two;"], ["two;", "one;"]),
            (["alpha beta;"], ["gamma delta;"]),
        ]
        swept = reward_sweep(pairs, [0.5, 0.95])
        assert [r for r, _ in swept] == [0.5, 0.95]
        for _, scores in swept:
            assert len(scores) == len(pairs)
            assert scores == sorted(scores)

    def test_scores_match_direct_evaluation(self):
        pairs = [(["x = 1;", "y = 2;"], ["y = 2;", "x = 1;"])]
        swept = reward_sweep(pairs, [0.75])
        direct = fragment_similarity(
            pairs[0][0], pairs[0][1], SimilarityParams(r=0.75)
        )
        assert swept[0][1] == [direct]
