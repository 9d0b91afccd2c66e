"""Line and fragment similarity against brute-force oracles and hand values."""

import math
import random

import pytest

from forkscan import simcore
from forkscan.cli import _parser
from forkscan.simcore import (
    KS_THRESHOLD,
    R,
    T,
    EmptyFragmentError,
    fragment_similarity,
    levenshtein,
    levenshtein_many,
    reward_sweep,
    strsim,
    strsim_many,
)

from conftest import oracle_fragment_similarity, oracle_levenshtein, oracle_strsim

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789(){};=_ ."
# Small alphabets make long runs of matches, so carries ripple far through
# the bit vectors; the last one holds non-ASCII and astral characters.
NARROW_ALPHABETS = ["ab", "abc", "abcd", "aé中😀"]
# Lengths either side of one and two 64-bit words.
WORD_EDGES = [0, 1, 2, 62, 63, 64, 65, 66, 126, 127, 128, 129, 130, 200]
# Pattern lengths of the packed kernel: 0-140 with the word edges among them.
PACKED_LENGTHS = [0, 1, 2, 5, 17, 40, 63, 64, 65, 100, 127, 128, 129, 140]


def text(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def rand_string(rng: random.Random, max_len: int) -> str:
    return text(rng, ALPHABET, rng.randint(0, max_len))


def mutate(rng: random.Random, s: str, alphabet: str, edits: int) -> str:
    """s after `edits` random single-character insertions, deletions or
    substitutions."""
    chars = list(s)
    for _ in range(edits):
        op = rng.choice("ids") if chars else "i"
        pos = rng.randrange(len(chars) + (op == "i"))
        if op == "i":
            chars.insert(pos, rng.choice(alphabet))
        elif op == "d":
            del chars[pos]
        else:
            chars[pos] = rng.choice(alphabet)
    return "".join(chars)


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

    @pytest.mark.parametrize("alphabet", NARROW_ALPHABETS)
    def test_narrow_alphabets_match_oracle(self, alphabet):
        rng = random.Random(1011)
        for _ in range(30):
            a = text(rng, alphabet, rng.randint(0, 150))
            b = text(rng, alphabet, rng.randint(0, 150))
            expected = oracle_levenshtein(a, b)
            assert levenshtein(a, b) == expected
            assert levenshtein(b, a) == expected

    def test_word_edge_lengths_match_oracle(self):
        # The bit vectors span the shorter string, so its length is the one
        # that straddles the word edges.
        rng = random.Random(1012)
        for alphabet in NARROW_ALPHABETS:
            for len_a in WORD_EDGES:
                for len_b in (len_a, len_a + rng.randint(1, 3)):
                    a = text(rng, alphabet, len_a)
                    b = text(rng, alphabet, len_b)
                    expected = oracle_levenshtein(a, b)
                    assert levenshtein(a, b) == expected, (alphabet, len_a, len_b)
                    assert levenshtein(b, a) == expected, (alphabet, len_a, len_b)

    def test_near_identical_pairs_match_oracle(self):
        # One string and a copy with 1-5 edits: most of it is trimmed or
        # matched, and the distance is small.
        rng = random.Random(1013)
        for alphabet in [*NARROW_ALPHABETS, ALPHABET]:
            for length in WORD_EDGES:
                a = text(rng, alphabet, length)
                edits = rng.randint(1, 5)
                b = mutate(rng, a, alphabet, edits)
                expected = oracle_levenshtein(a, b)
                assert expected <= edits
                assert levenshtein(a, b) == expected
                assert levenshtein(b, a) == expected

    def test_non_ascii_known_distances(self):
        assert levenshtein("é", "e") == 1
        assert levenshtein("中文", "文中") == 2
        assert levenshtein("a😀b", "ab") == 1
        # No common prefix or suffix to trim, and longer than one 64-bit word.
        assert levenshtein("é" + "😀中" * 40, "😀中" * 40 + "é") == 2

    def test_symmetry_and_triangle(self):
        rng = random.Random(1002)
        for _ in range(100):
            a, b, c = (rand_string(rng, 30) for _ in range(3))
            assert levenshtein(a, b) == levenshtein(b, a)
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def rand_batch(rng: random.Random, alphabet: str) -> tuple[str, list[str]]:
    """One string and 0-12 patterns: random lengths and word edges, mutated
    copies of the string, its prefixes, duplicates and empty patterns."""
    a = text(rng, alphabet, rng.choice(PACKED_LENGTHS + [rng.randint(0, 140)]))
    bs: list[str] = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.randrange(5)
        if kind == 0:
            bs.append(text(rng, alphabet, rng.choice(PACKED_LENGTHS)))
        elif kind == 1:
            bs.append(mutate(rng, a, alphabet, rng.randint(0, 4)))
        elif kind == 2:
            bs.append(a[:rng.randint(0, len(a))])
        elif kind == 3 and bs:
            bs.append(rng.choice(bs))
        else:
            bs.append(text(rng, alphabet, rng.randint(0, 140)))
    return a, bs


class TestLevenshteinMany:
    def test_known_batch(self):
        assert levenshtein_many("kitten", ["sitting", "", "kitten", "kit", "sitting"]) == [
            3, 6, 0, 3, 3,
        ]
        assert levenshtein_many("abc", []) == []
        assert levenshtein_many("", ["", "ab", "é😀"]) == [0, 2, 2]

    @pytest.mark.parametrize("alphabet", [*NARROW_ALPHABETS, ALPHABET])
    def test_random_batches_match_oracle(self, alphabet):
        rng = random.Random(1021)
        for _ in range(20):
            a, bs = rand_batch(rng, alphabet)
            assert levenshtein_many(a, bs) == [oracle_levenshtein(a, b) for b in bs], (
                a, bs,
            )

    def test_word_edge_patterns_match_oracle(self):
        # Every word-edge length in one batch, so segments start at and
        # straddle word boundaries of the packed int.
        rng = random.Random(1022)
        for alphabet in NARROW_ALPHABETS:
            bs = [text(rng, alphabet, n) for n in PACKED_LENGTHS]
            rng.shuffle(bs)
            for len_a in (0, 1, 64, 129, 140):
                a = text(rng, alphabet, len_a)
                assert levenshtein_many(a, bs) == [oracle_levenshtein(a, b) for b in bs]

    def test_prefixes_and_equal_patterns(self):
        a = "abcab" * 26  # 130 characters
        bs = [a[:n] for n in PACKED_LENGTHS] + [a, a, ""]
        assert levenshtein_many(a, bs) == [oracle_levenshtein(a, b) for b in bs]


class TestPackMemo:
    """Each distinct batch is packed once per run and then scored against
    any a, exactly."""

    @pytest.fixture(autouse=True)
    def packs(self, monkeypatch):
        """The batches packed, against an empty pack memo."""
        monkeypatch.setattr(simcore, "_PACK_MEMO", {})
        packed, real = [], simcore._pack

        def counting(bs):
            packed.append(bs)
            return real(bs)

        monkeypatch.setattr(simcore, "_pack", counting)
        return packed

    def test_one_batch_against_several_a(self, packs):
        rng = random.Random(1041)
        batches = []
        for alphabet in [*NARROW_ALPHABETS, ALPHABET]:
            _, bs = rand_batch(rng, alphabet)
            batches.append(tuple(bs))
            for _ in range(8):
                a = text(rng, alphabet, rng.randint(0, 140))
                assert levenshtein_many(a, bs) == [oracle_levenshtein(a, b) for b in bs]
        assert packs == batches

    def test_batches_with_empty_and_repeated_patterns(self, packs):
        rng = random.Random(1042)
        for bs in (["", "", ""], ["ab", "", "ab", "", "abc"], ["", "x" * 130, ""],
                   ["a\u00e9\u4e2d", "a\u00e9\u4e2d", "\U0001f600"]):
            for a in ("", "ab", text(rng, "abcx\u00e9", 70), "x" * 129):
                assert levenshtein_many(a, bs) == [oracle_levenshtein(a, b) for b in bs]
        assert len(packs) == 4

    def test_reordered_strings_are_another_batch(self, packs):
        rng = random.Random(1043)
        bs = [text(rng, "abc", n) for n in (3, 0, 64, 17, 65)]
        a = text(rng, "abc", 90)
        want = [oracle_levenshtein(a, b) for b in bs]
        assert levenshtein_many(a, bs) == want
        for order in (bs[::-1], bs[1:] + bs[:1]):
            assert levenshtein_many(a, order) == [
                oracle_levenshtein(a, b) for b in order
            ]
        assert levenshtein_many(a, bs) == want
        assert packs == [tuple(bs), tuple(bs[::-1]), tuple(bs[1:] + bs[:1])]


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

    def test_repeated_call_is_memoized_and_exact(self):
        rng = random.Random(1014)
        for _ in range(100):
            a = rand_string(rng, 80)
            b = mutate(rng, a, ALPHABET, rng.randint(0, 5))
            first = strsim(a, b)
            assert first == oracle_strsim(a, b)
            assert strsim(a, b) == first
            assert simcore._STRSIM_MEMO[(a, b)] == first

    def test_argument_order_does_not_matter(self):
        rng = random.Random(1015)
        for alphabet in [*NARROW_ALPHABETS, ALPHABET]:
            for _ in range(20):
                a = text(rng, alphabet, rng.randint(0, 130))
                b = text(rng, alphabet, rng.randint(0, 130))
                assert strsim(a, b) == strsim(b, a) == oracle_strsim(a, b)

    def test_bounds(self):
        rng = random.Random(1004)
        for _ in range(200):
            v = strsim(rand_string(rng, 50), rand_string(rng, 50))
            assert 0.0 <= v <= 1.0


class TestStrsimMany:
    def test_values_in_input_order(self, kernel_calls):
        rng = random.Random(1031)
        for alphabet in [*NARROW_ALPHABETS, ALPHABET]:
            for _ in range(6):
                a, bs = rand_batch(rng, alphabet)
                assert strsim_many(a, bs) == [oracle_strsim(a, b) for b in bs]

    def test_duplicates_are_computed_once(self, kernel_calls):
        bs = ["x = 1;", "y = 2;", "x = 1;", "", "y = 2;"]
        assert strsim_many("x = 2;", bs) == [strsim("x = 2;", b) for b in bs]
        assert kernel_calls == [["x = 1;", "y = 2;", ""]]

    def test_fills_memo_and_sends_only_misses(self, kernel_calls):
        strsim("a = b;", "a = c;")
        kernel_calls.clear()
        got = strsim_many("a = b;", ["a = c;", "q = r;", "a = c;"])
        assert kernel_calls == [["q = r;"]]
        assert simcore._STRSIM_MEMO[("a = b;", "q = r;")] == got[1]
        assert got == [oracle_strsim("a = b;", b) for b in ["a = c;", "q = r;", "a = c;"]]

    def test_all_hits_make_no_kernel_call(self, kernel_calls):
        bs = ["alpha();", "beta();", "alpha();"]
        first = strsim_many("gamma();", bs)
        kernel_calls.clear()
        assert strsim_many("gamma();", bs[::-1]) == first[::-1]
        assert strsim_many("gamma();", []) == []
        assert [strsim("gamma();", b) for b in bs] == first
        assert kernel_calls == []

    def test_both_empty_is_identical(self, kernel_calls):
        assert strsim_many("", ["", "ab"]) == [1.0, 0.0]


class TestParams:
    def test_defaults(self):
        assert (R, T, KS_THRESHOLD) == (0.95, 0.40, 0.25)

    def test_r_is_a_reward_factor(self):
        assert 0.0 <= R <= 1.0

    def test_t_is_not_below_the_key_statement_gate(self):
        assert KS_THRESHOLD <= T < 1.0

    @pytest.mark.parametrize("kwargs", [
        {"r": -0.1}, {"r": 1.1}, {"t": 0.0}, {"t": 1.0},
        {"t": 0.2}, {"t": 0.24},  # below the key-statement gate
    ])
    def test_rejects_bad_values(self, kwargs, capsys):
        # r and t are fixed, so a scan cannot be given a value outside
        # their ranges: the detect command line refuses both flags.
        ((name, value),) = kwargs.items()
        with pytest.raises(SystemExit) as exc:
            _parser().parse_args(["detect", f"--{name}", str(value)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{name} {value}" in capsys.readouterr().err


class TestFragmentSimilarity:
    def test_identity_is_one(self):
        frag = ["int a = 1;", "call(a);", "return a;"]
        assert fragment_similarity(frag, frag, R) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyFragmentError):
            fragment_similarity([], ["x"], R)
        with pytest.raises(EmptyFragmentError):
            fragment_similarity(["x"], [], R)

    def test_two_line_swap_equals_r(self):
        # p=2 and both lines match exactly at offset 1: score = (r + r)/2 = r.
        frag = ["alpha = beta;", "gamma(delta);"]
        swapped = [frag[1], frag[0]]
        assert fragment_similarity(frag, swapped, 0.95) == 0.95

    def test_adjacent_swap_formula(self):
        # Identical fragments with lines i, i+1 swapped: 1 - (2 - 2r)/p.
        frag = [f"unique_line_{i} = {i * 7};" for i in range(6)]
        swapped = list(frag)
        swapped[2], swapped[3] = swapped[3], swapped[2]
        expect = 1 - (2 - 2 * R) / len(frag)
        assert fragment_similarity(frag, swapped, R) == pytest.approx(
            expect, abs=1e-12
        )

    def test_permutation_law(self):
        rng = random.Random(1005)
        for _ in range(50):
            p = rng.randint(2, 8)
            frag = [f"line_{i}_{rand_string(rng, 20)}" for i in range(p)]
            perm = list(range(p))
            rng.shuffle(perm)
            target = [frag[perm[j]] for j in range(p)]
            # source line i sits at target position perm.index(i)
            expect = sum(R ** abs(i - perm.index(i)) for i in range(p)) / p
            got = fragment_similarity(frag, target, R)
            assert math.isclose(got, expect, abs_tol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(1006)
        for _ in range(100):
            src = rand_fragment(rng)
            tgt = rand_fragment(rng)
            assert fragment_similarity(src, tgt, R) == pytest.approx(
                oracle_fragment_similarity(src, tgt, R), abs=1e-12
            )

    def test_warm_memo_matches_oracle(self):
        rng = random.Random(1016)
        for _ in range(30):
            src = rand_fragment(rng)
            tgt = [mutate(rng, line, ALPHABET, rng.randint(0, 3)) for line in src]
            rng.shuffle(tgt)
            for s_line in src:
                for t_line in tgt:
                    strsim(s_line, t_line)
            assert all((s_line, tgt[0]) in simcore._STRSIM_MEMO for s_line in src)
            assert fragment_similarity(src, tgt, R) == pytest.approx(
                oracle_fragment_similarity(src, tgt, R), abs=1e-12
            )

    def test_bounds(self):
        rng = random.Random(1007)
        for _ in range(100):
            score = fragment_similarity(
                rand_fragment(rng), rand_fragment(rng), R
            )
            assert 0.0 <= score <= 1.0

    def test_asymmetric_by_design(self):
        src = ["aaaa bbbb cccc;"]
        tgt = ["aaaa bbbb cccc;", "zzzz yyyy xxxx;"]
        assert fragment_similarity(src, tgt, R) == 1.0
        assert fragment_similarity(tgt, src, R) < 1.0

    def test_monotone_in_r(self):
        rng = random.Random(1008)
        for _ in range(50):
            src = rand_fragment(rng)
            tgt = rand_fragment(rng)
            scores = [
                fragment_similarity(src, tgt, r)
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
        direct = fragment_similarity(pairs[0][0], pairs[0][1], 0.75)
        assert swept[0][1] == [direct]

    def test_rejects_no_pairs(self):
        with pytest.raises(ValueError, match="^no fragment pairs given$"):
            reward_sweep([], [0.9])

    @pytest.mark.parametrize("r", [-0.1, 1.1])
    def test_rejects_r_outside_unit_interval(self, r):
        pairs = [(["x = 1;"], ["x = 1;"])]
        with pytest.raises(ValueError, match=rf"r must be in \[0, 1\], got {r}"):
            reward_sweep(pairs, [0.5, r])
