"""Acceptance gate: eight end-to-end criteria with fixed tolerances.

Each test prints exactly one `criterion N: PASS/FAIL (...)` line (visible
with pytest -s) and fails loudly when the bound is missed. The heavyweight
fixtures (planted-clone corpus, bulk target) are module scoped so the gate
stays fast enough to run on every change.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
import time
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import pytest

from forkscan import fixturegen
from forkscan.cli import main
from forkscan.delay import earliest_release, find_fix_commit, patch_delay
from forkscan.gitio import RepoHandle
from forkscan.patchmodel import PatchType
from forkscan.report import emit_cdf
from forkscan.simcore import R, fragment_similarity, reward_sweep, strsim
from forkscan.verdict import decide

from conftest import TABLE_FILE, UTC, oracle_strsim

_POOL = string.ascii_letters + string.digits + " _();{}.=<>+-*/\"'"


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def _line(rng: random.Random, lo: int = 1, hi: int = 60) -> str:
    return "".join(rng.choice(_POOL) for _ in range(rng.randint(lo, hi)))


def _fragment(rng: random.Random, max_lines: int = 8) -> list[str]:
    return [_line(rng) for _ in range(rng.randint(1, max_lines))]


def _mutated(rng: random.Random, lines: list[str]) -> list[str]:
    """A plausibly forked copy: char tweaks plus one structural edit."""
    out = []
    for line in lines:
        chars = list(line)
        for _ in range(rng.randint(0, 3)):
            chars[rng.randrange(len(chars))] = rng.choice(_POOL)
        out.append("".join(chars))
    roll = rng.random()
    if roll < 0.3 and len(out) > 1:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    elif roll < 0.6:
        out.insert(rng.randint(0, len(out)), _line(rng))
    elif len(out) > 1:
        del out[rng.randrange(len(out))]
    return out


# ---------------------------------------------------------------------------
# corpus fixture shared by criteria 4 and 8


def _scan_corpus(corpus_dir: Path, index: dict, reports_dir: Path) -> dict[str, Path]:
    """One detect run per case covering both its targets; returns report paths."""
    source = corpus_dir / "source"
    paths: dict[str, Path] = {}
    for case in index["cases"]:
        out = reports_dir / f"{case['name']}.json"
        main(
            [
                "detect",
                "--source",
                str(source),
                "--patch",
                case["patch_sha"],
                "--target",
                str(corpus_dir / case["vuln_target"]),
                "--target",
                str(corpus_dir / case["fixed_target"]),
                "--out",
                str(out),
            ]
        )
        paths[case["name"]] = out
    return paths


@pytest.fixture(scope="module")
def corpus_env(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    corpus_dir = base / "corpus"
    started = time.monotonic()
    index = fixturegen.gen_fixtures(fixturegen.default_cases(), corpus_dir)
    built = time.monotonic()
    reports = _scan_corpus(corpus_dir, index, base / "reports_a")
    return SimpleNamespace(
        base=base,
        corpus_dir=corpus_dir,
        index=index,
        reports=reports,
        build_s=built - started,
        scan_s=time.monotonic() - built,
    )


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_strsim_matches_dp_oracle():
    rng = random.Random(11)
    pairs = [
        (_line(rng, 0, 120), _line(rng, 0, 120)) for _ in range(1000)
    ]
    started = time.monotonic()
    mismatches = sum(1 for a, b in pairs if strsim(a, b) != oracle_strsim(a, b))
    elapsed = time.monotonic() - started
    _criterion(
        1,
        mismatches == 0 and elapsed < 5.0,
        f"{len(pairs)} pairs, {mismatches} mismatches, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_fragment_similarity_exactness():
    rng = random.Random(22)
    failures: list[str] = []

    for _ in range(50):
        frag = _fragment(rng)
        if fragment_similarity(frag, frag, R) != 1.0:
            failures.append("identity != 1.0")
            break

    for _ in range(1000):
        score = fragment_similarity(_fragment(rng), _fragment(rng), R)
        if not 0.0 <= score <= 1.0:
            failures.append(f"score {score} out of [0, 1]")
            break

    sweep_rs = (0.15, 0.35, 0.55, 0.75, 0.95)
    worst = 0.0
    for k in range(200):
        p = rng.randint(2, 12)
        base = [
            f"int value{i} = helper{i}(arg{i}, {rng.randint(0, 999)});"
            for i in range(p)
        ]
        perm = list(range(p))
        rng.shuffle(perm)
        r = sweep_rs[k % len(sweep_rs)]
        got = fragment_similarity([base[perm[i]] for i in range(p)], base, r)
        expected = sum(r ** abs(i - perm[i]) for i in range(p)) / p
        worst = max(worst, abs(got - expected))
    if worst > 1e-12:
        failures.append(f"permutation law off by {worst}")

    swap = fragment_similarity(
        ["second_line(b);", "first_line(a);"],
        ["first_line(a);", "second_line(b);"],
        0.95,
    )
    if swap != 0.95:
        failures.append(f"two-line swap gave {swap}, want 0.95")

    _criterion(
        2,
        not failures,
        "; ".join(failures)
        or f"identity, bounds, 200 permutations (worst {worst:.1e}), swap == 0.95",
    )


def test_criterion_3_reward_factor_monotonicity():
    rng = random.Random(33)
    pairs = []
    for k in range(100):
        a = _fragment(rng)
        b = _mutated(rng, a) if k % 2 else _fragment(rng)
        if not b:
            b = [_line(rng)]
        pairs.append((a, b))
    rs = [0.15, 0.35, 0.55, 0.75, 0.95]

    failures: list[str] = []
    per_pair = [
        [fragment_similarity(a, b, r) for r in rs]
        for a, b in pairs
    ]
    for i, seq in enumerate(per_pair):
        if any(seq[k + 1] < seq[k] for k in range(len(seq) - 1)):
            failures.append(f"pair {i} not monotone: {seq}")
            break

    for r, scores in reward_sweep(pairs, rs):
        series = emit_cdf(scores)
        ascending = all(
            series.values[k] < series.values[k + 1]
            for k in range(len(series.values) - 1)
        )
        increasing = all(
            series.fractions[k] < series.fractions[k + 1]
            for k in range(len(series.fractions) - 1)
        )
        if not (ascending and increasing and series.fractions[-1] == 1.0):
            failures.append(f"CDF at r={r} not strictly increasing to 1.0")
            break

    _criterion(
        3,
        not failures,
        "; ".join(failures) or f"{len(pairs)} pairs x {len(rs)} r values",
    )


def test_criterion_4_planted_clone_corpus(corpus_env):
    hits: dict[int, list[int]] = {1: [0, 0], 2: [0, 0], 3: [0, 0]}
    type1_fixed_vulnerable = 0
    for case in corpus_env.index["cases"]:
        scan = json.loads(
            corpus_env.reports[case["name"]].read_text(encoding="utf-8")
        )
        by_target = {r["target"]: r["status"] for r in scan["results"]}
        vuln = by_target[f"tgt_{case['name']}_vuln"]
        fixed = by_target[f"tgt_{case['name']}_fixed"]
        if vuln == "Vulnerable":
            hits[case["clone_type"]][0] += 1
        if fixed == "Fixed":
            hits[case["clone_type"]][1] += 1
        if case["clone_type"] == 1 and fixed == "Vulnerable":
            type1_fixed_vulnerable += 1

    ok = (
        hits[1] == [10, 10]
        and hits[2][0] >= 8
        and hits[2][1] >= 8
        and hits[3][0] >= 8
        and hits[3][1] >= 8
        and type1_fixed_vulnerable == 0
        and corpus_env.build_s + corpus_env.scan_s < 60.0
    )
    _criterion(
        4,
        ok,
        f"type1 {hits[1][0]}/10+{hits[1][1]}/10, "
        f"type2 {hits[2][0]}/10+{hits[2][1]}/10, "
        f"type3 {hits[3][0]}/10+{hits[3][1]}/10, "
        f"{type1_fixed_vulnerable} false alarms on patched type1, "
        f"built in {corpus_env.build_s:.1f}s, "
        f"scanned in {corpus_env.scan_s:.1f}s (< 60s)",
    )


def test_criterion_5_decision_truth_table():
    t = 0.40
    hi, lo = 0.75, 0.10
    cells = [
        # DEL: candidate still matching the deleted lines means not patched.
        (PatchType.DEL, hi, None, 0),
        (PatchType.DEL, t, None, 0),  # boundary: s == t passes
        (PatchType.DEL, lo, None, 1),
        # ADD: candidate matching the added lines means patched.
        (PatchType.ADD, None, hi, 1),
        (PatchType.ADD, None, t, 1),
        (PatchType.ADD, None, lo, 0),
        # CHA: one side passing decides alone.
        (PatchType.CHA, hi, lo, 0),
        (PatchType.CHA, lo, hi, 1),
        # CHA: both passing, the larger similarity wins; ties stay vulnerable.
        (PatchType.CHA, 0.9, 0.6, 0),
        (PatchType.CHA, 0.6, 0.9, 1),
        (PatchType.CHA, 0.7, 0.7, 0),
        # CHA: neither passing is undecidable with negative confidence.
        (PatchType.CHA, lo, lo, None),
    ]
    failures: list[str] = []
    for ptype, s_del, s_add, want_fv in cells:
        fv, conf = decide(ptype, s_del, s_add, t)
        if fv != want_fv:
            failures.append(f"{ptype.name}({s_del},{s_add}) -> fv {fv}, want {want_fv}")
            continue
        sims = [s for s in (s_del, s_add) if s is not None]
        want_conf = max(sims) - t if fv is None else None
        if fv is None and abs(conf - want_conf) > 1e-12:
            failures.append(f"{ptype.name} undecided conf {conf}, want {want_conf}")
        if fv is not None and conf < 0:
            failures.append(f"{ptype.name} decided with negative conf {conf}")
        if fv is None and conf >= 0:
            failures.append(f"{ptype.name} undecided with conf {conf} >= 0")

    _criterion(
        5, not failures, "; ".join(failures) or f"{len(cells)}/{len(cells)} cells"
    )


def test_criterion_6_release_delay_fixture(table_repo):
    repo, c_rewrite, _ = table_repo
    handle = RepoHandle(repo)

    true_fix = find_fix_commit(handle, TABLE_FILE, (204, 208), "HEAD")
    release = earliest_release(handle, true_fix)
    ok = true_fix == c_rewrite and release is not None
    delay = None
    if ok:
        delay = patch_delay(datetime(2019, 8, 10, tzinfo=UTC), release[1])
        ok = release[0] == "mainnet-ignition-v0.19.0" and abs(delay - 197) <= 1
    _criterion(
        6,
        ok,
        f"true_fix {'ok' if true_fix == c_rewrite else 'WRONG'}, "
        f"release {release and release[0]}, delay {delay} days (197 +/- 1)",
    )


def test_criterion_7_throughput_on_bulk_target(tmp_path):
    bulk = fixturegen.build_throughput_fixture(tmp_path)
    out = tmp_path / "bulk_report.json"

    started = time.monotonic()
    code = main(
        [
            "detect",
            "--source",
            bulk["source"],
            "--patch",
            bulk["patch_sha"],
            "--target",
            bulk["target"],
            "--out",
            str(out),
        ]
    )
    elapsed = time.monotonic() - started

    row = json.loads(out.read_text(encoding="utf-8"))["results"][0]
    ok = (
        elapsed < 10.0
        and code == 1
        and row["status"] == "Vulnerable"
        and row["path"] == bulk["planted_file"]
    )
    _criterion(
        7,
        ok,
        f"100 kLOC scan {elapsed:.2f}s (< 10s), {row['status']} in {row['path']}",
    )


def test_criterion_8_deterministic_reports(corpus_env):
    second = _scan_corpus(
        corpus_env.corpus_dir, corpus_env.index, corpus_env.base / "reports_b"
    )
    differing = [
        name
        for name, path in second.items()
        if path.read_bytes() != corpus_env.reports[name].read_bytes()
    ]
    _criterion(
        8,
        not differing,
        f"{len(second)} reports byte-identical"
        if not differing
        else f"reports differ: {differing}",
    )


# sha256 over every corpus report (report JSON and CSV, in case order, with
# the corpus directory written as "."), taken before the search stage
# dropped its key-statement ranking.
CORPUS_REPORTS_SHA256 = "3dc165546d58f3fa8b9f16d8d724ee09886f08036bb5d7604687887f5e94673b"


# sha256 over the report of the north star's cross product: one detect of
# every corpus patch against every corpus target (30 x 60 pairs; report
# JSON, CSV and delay CDF, with the corpus directory written as "."), taken
# before each target's files were read in one batch.
CROSS_PRODUCT_SHA256 = "e62f3ab99ed4eba2e34b624d592ab77bbf1eb9c77c5df9c258e62ba4bf558b9f"


def _detect_cross_product(corpus_env, out: Path) -> int:
    """One detect of every corpus patch against every corpus target."""
    corpus_dir = corpus_env.corpus_dir
    cases = corpus_env.index["cases"]
    argv = ["detect", "--source", str(corpus_dir / "source")]
    for case in cases:
        argv += ["--patch", case["patch_sha"]]
    for case in cases:
        argv += ["--target", str(corpus_dir / case["vuln_target"]),
                 "--target", str(corpus_dir / case["fixed_target"])]
    return main([*argv, "--out", str(out)])


def test_cross_product_report_matches_pinned_digest(corpus_env):
    corpus_dir = corpus_env.corpus_dir
    out = corpus_env.base / "cross" / "report.json"
    assert _detect_cross_product(corpus_env, out) == 1
    digest = hashlib.sha256()
    for name in ("report.json", "report.csv", "delay_cdf.csv"):
        text = (out.parent / name).read_text(encoding="utf-8")
        digest.update(name.encode() + b"\0" + text.replace(str(corpus_dir), ".").encode())
    assert len(json.loads(out.read_text(encoding="utf-8"))["results"]) == 30 * 60
    assert digest.hexdigest() == CROSS_PRODUCT_SHA256, (
        "the cross-product report changed. Update CROSS_PRODUCT_SHA256 only for "
        "an intended report change, and record that change in CHANGES.md"
    )


def test_cross_product_git_processes(corpus_env, monkeypatch):
    # Two git processes read every patch, two open each target (its grep and
    # its file read) and two look up each distinct Fixed region of a target.
    calls = []
    real = RepoHandle._run

    def run(self, args, input=None):
        calls.append(args[0])
        return real(self, args, input)

    monkeypatch.setattr(RepoHandle, "_run", run)
    out = corpus_env.base / "cross_git" / "report.json"
    assert _detect_cross_product(corpus_env, out) == 1
    rows = json.loads(out.read_text(encoding="utf-8"))["results"]
    regions = {(r["target"], r["path"], tuple(r["span"]))
               for r in rows if r["status"] == "Fixed"}
    assert len(regions) == 54
    assert len(calls) == 2 + 2 * 60 + 2 * len(regions) == 230


def test_corpus_reports_match_pinned_digest(corpus_env):
    corpus = str(corpus_env.corpus_dir)
    digest = hashlib.sha256()
    for name in sorted(corpus_env.reports):
        report = corpus_env.reports[name]
        for path in (report, report.with_suffix(".csv")):
            text = path.read_text(encoding="utf-8").replace(corpus, ".")
            digest.update(path.name.encode() + b"\0" + text.encode())
    assert digest.hexdigest() == CORPUS_REPORTS_SHA256, (
        "the corpus reports changed. Update CORPUS_REPORTS_SHA256 only for an "
        "intended report change, and record that change in CHANGES.md"
    )
