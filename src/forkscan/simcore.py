"""Similarity mathematics: per-line normalized edit similarity and the
order-tolerant fragment similarity with positional reward decay.

A scan is one process, and its targets' statements are scored against
every patch, so the kernel keeps three memos for the run: each pattern's
character masks, each distinct batch of patterns packed into one int, and
each line pair's similarity."""

from __future__ import annotations


class EmptyFragmentError(ValueError):
    """Raised when fragment similarity is asked about an empty fragment."""


# Low-recall gate used while searching key statements and expanding context
# boundaries; the decision threshold T is not below it.
KS_THRESHOLD = 0.25

# Positional reward factor: a statement matched at offset d from its
# expected position contributes sim * R**d.
R = 0.95

# Decision threshold for patch-applied similarity tests.
T = 0.40


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insert/delete/substitute, unit cost).

    Exact: the common prefix and suffix are trimmed, and the rest is one
    levenshtein_many pass over the shorter string with the longer as pattern.
    """
    if a == b:
        return 0
    # Trim common prefix/suffix; cheap and frequent on near-identical lines.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    return levenshtein_many(a, [b])[0]


# Per-run memo of each pattern's masks (peq[c]: bit i set where s[i] == c):
# target statements recur as patterns across every patch of a scan.
_PEQ_MEMO: dict[str, dict[str, int]] = {}


def _peq(s: str) -> dict[str, int]:
    peq = _PEQ_MEMO.get(s)
    if peq is None:
        peq = {}
        bit = 1
        for c in s:
            peq[c] = peq.get(c, 0) | bit
            bit <<= 1
        _PEQ_MEMO[s] = peq
    return peq


# A batch of patterns packed into one int: per-character masks, the first
# bit and the bits of every segment, and each pattern's (offset, bits).
_Pack = tuple[dict[str, int], int, int, list[tuple[int, int]]]

# Per-run memo of packed batches: a target's windows are scored against
# the statements of every patch of a scan, as the same batch.
_PACK_MEMO: dict[tuple[str, ...], _Pack] = {}


def _pack(bs: tuple[str, ...]) -> _Pack:
    """Pattern i gets len(bs[i]) bits followed by one zero guard bit, where
    the carry of the addition stops; an empty pattern gets none."""
    eqs: dict[str, int] = {}
    segs: list[tuple[int, int]] = []
    first = mask = off = 0
    for b in bs:
        seg = (1 << len(b)) - 1
        segs.append((off, seg))
        if not b:
            continue
        for c, bits in _peq(b).items():
            eqs[c] = eqs.get(c, 0) | bits << off
        first |= 1 << off
        mask |= seg << off
        off += len(b) + 1
    return eqs, first, mask, segs


def levenshtein_many(a: str, bs: list[str]) -> list[int]:
    """Edit distance of a to each of bs, in input order.

    Exact, by the bit-parallel algorithm of Myers (J. ACM 46(3), 1999) in
    Hyyrö's edit-distance form, with all of bs packed into one Python int
    (Hyyrö, Fredriksson & Navarro, ACM JEA 10, 2005). pv / mv hold the
    +1 / -1 vertical deltas of one DP column over every pattern and are
    updated once per character of a; the last column gives distance i as
    len(a) + (+1 deltas) - (-1 deltas) of segment i. Each distinct batch
    (the same strings in the same order) is packed once per run.
    """
    key = tuple(bs)
    pack = _PACK_MEMO.get(key)
    if pack is None:
        pack = _PACK_MEMO[key] = _pack(key)
    eqs, first, mask, segs = pack
    pv, mv = mask, 0  # column 0 is 0..len(b) in every segment
    for c in a:
        # d0: zero diagonal deltas; ph / mh: +1 / -1 horizontal deltas.
        eq = eqs.get(c, 0)
        d0 = (((eq & pv) + pv) ^ pv) | eq | mv
        ph = mv | ~(d0 | pv)
        mh = pv & d0
        ph = (ph << 1) | first  # row 0 grows by one per column
        pv = ((mh << 1) | ~(d0 | ph)) & mask
        # May set guard bits: they stay there, as the shift of ph carries
        # them only into first bits, which are set anyway.
        mv = ph & d0
    n = len(a)
    return [
        n + (pv >> off & seg).bit_count() - (mv >> off & seg).bit_count()
        for off, seg in segs
    ]


# Per-run memo of strsim: each scan is its own process, and near-clone
# targets ask for the same line pairs many times.
_STRSIM_MEMO: dict[tuple[str, str], float] = {}


def _sim(a: str, b: str, dist: int) -> float:
    return 1.0 - dist / max(len(a), len(b)) if a or b else 1.0


def strsim(a: str, b: str) -> float:
    """Normalized edit similarity: 1 - distance / max length, in [0, 1]."""
    sim = _STRSIM_MEMO.get((a, b))
    if sim is None:
        sim = _STRSIM_MEMO[a, b] = _sim(a, b, levenshtein(a, b))
    return sim


def strsim_many(a: str, bs: list[str]) -> list[float]:
    """[strsim(a, b) for b in bs], with the distinct pairs missing from the
    memo computed in one levenshtein_many pass."""
    memo = _STRSIM_MEMO
    misses = list(dict.fromkeys(b for b in bs if (a, b) not in memo))
    if misses:
        for b, dist in zip(misses, levenshtein_many(a, misses)):
            memo[a, b] = _sim(a, b, dist)
    return [memo[a, b] for b in bs]


def fragment_similarity(source: list[str], target: list[str], r: float) -> float:
    """Order-tolerant similarity score of two code fragments, in [0, 1].

    Every source statement is matched to its most similar target statement
    (ties broken by minimal index offset, then by smaller target index); the
    per-line similarity is discounted by r**|i - j| and the score is the
    mean over the source statements. Asymmetric by construction: the first
    argument is the fragment being explained.
    """
    if not source:
        raise EmptyFragmentError("source fragment is empty")
    if not target:
        raise EmptyFragmentError("target fragment is empty")
    total = 0.0
    for i, s_line in enumerate(source):
        sims = strsim_many(s_line, target)
        best_sim = sims[0]
        best_off = i
        for j in range(1, len(target)):
            sim = sims[j]
            off = abs(i - j)
            if sim > best_sim or (sim == best_sim and off < best_off):
                best_sim, best_off = sim, off
        total += best_sim * r ** best_off
    return total / len(source)


def reward_sweep(
    pairs: list[tuple[list[str], list[str]]],
    r_values: list[float],
) -> list[tuple[float, list[float]]]:
    """Score every fragment pair under each reward factor.

    Returns one (r, scores) row per r value, scores sorted ascending so they
    can be turned into a CDF directly. Every r must lie in [0, 1].
    """
    if not pairs:
        raise ValueError("no fragment pairs given")
    table: list[tuple[float, list[float]]] = []
    for r in r_values:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {r}")
        table.append((r, sorted(fragment_similarity(s, t, r) for s, t in pairs)))
    return table
