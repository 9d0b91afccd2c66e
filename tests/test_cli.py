"""Command line coverage: config resolution, exit codes, report artifacts.

The world fixture builds one upstream repo with a single one-line hardening
commit and three forks with known ground truth: one still vulnerable
(verbatim clone), one fixed via a backport and a release tag, and one that
never imported the code. Every detect run is asserted against that truth.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import pytest

import forkscan
from forkscan import __version__, fixturegen
from forkscan.cli import (
    ConfigError,
    RunConfig,
    _add_detect_flags,
    _build_config,
    _load_patches,
    _parse_target_token,
    _parser,
    _unique_names,
    main,
)
from forkscan.fixturegen import CloneCase
from conftest import (
    UTC,
    commit_all,
    init_repo,
    oracle_fragment_similarity,
    run_git,
    tag_annotated,
    write_files,
)

VULN_LINE = 'if (fHavePruned) return state.Error("corrupt block database");'
FIXED_LINE = (
    "if (fHavePruned || fCorruptRecovery) return AbortNode(state, "
    '"Corrupt block database detected, please restart with -reindex");'
)


def _validation_cpp(middle: str) -> str:
    lines = [
        '#include "validation.h"',
        "",
        "bool CVerifyDB::VerifyDB(const CChainParams& chainparams, CCoinsView* coinsview)",
        "{",
        '    LogPrintf("Verifying last blocks at level...\\n");',
        '    int nCheckDepth = gArgs.GetArg("-checkblocks", DEFAULT_CHECKBLOCKS);',
        "    CBlockIndex* pindexState = chainActive.Tip();",
        "    " + middle,
        "    int nGoodTransactions = 0;",
        '    LogPrintf("Verification progress done\\n");',
        "    return true;",
        "}",
    ]
    return "\n".join(lines) + "\n"


# Shares no keyword with the patch contexts, so the scan finds nothing.
CLEAN_CPP = (
    "\n".join(
        [
            '#include "httpserver.h"',
            "",
            "static void acceptLoop(evhttp* httpd)",
            "{",
            "    int backlog = 16;",
            "    listenSocket(httpd, backlog);",
            "}",
        ]
    )
    + "\n"
)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    base = tmp_path_factory.mktemp("cliworld")

    src = init_repo(base / "upstream")
    write_files(src, {"src/validation.cpp": _validation_cpp(VULN_LINE)})
    commit_all(src, "import verification code", datetime(2021, 1, 1, tzinfo=UTC))
    write_files(src, {"src/validation.cpp": _validation_cpp(FIXED_LINE)})
    patch_sha = commit_all(
        src, "harden pruned-state handling", datetime(2021, 6, 1, tzinfo=UTC)
    )

    vuln = init_repo(base / "vulnfork")
    write_files(vuln, {"src/validation.cpp": _validation_cpp(VULN_LINE)})
    commit_all(vuln, "fork verification code", datetime(2021, 2, 1, tzinfo=UTC))

    fixed = init_repo(base / "fixedfork")
    write_files(fixed, {"src/validation.cpp": _validation_cpp(VULN_LINE)})
    commit_all(fixed, "fork verification code", datetime(2021, 2, 1, tzinfo=UTC))
    write_files(fixed, {"src/validation.cpp": _validation_cpp(FIXED_LINE)})
    backport_sha = commit_all(
        fixed, "backport hardening fix", datetime(2021, 9, 1, tzinfo=UTC)
    )
    tag_annotated(fixed, "v2.0.0", datetime(2021, 12, 1, tzinfo=UTC))

    clean = init_repo(base / "cleanfork")
    write_files(clean, {"src/httpserver.cpp": CLEAN_CPP})
    commit_all(clean, "unrelated import", datetime(2021, 2, 1, tzinfo=UTC))

    plain = base / "notarepo"
    plain.mkdir()
    (plain / "readme.txt").write_text("no git here\n", encoding="utf-8")

    return SimpleNamespace(
        base=base,
        src=src,
        patch_sha=patch_sha,
        vuln=vuln,
        fixed=fixed,
        backport_sha=backport_sha,
        clean=clean,
        plain=plain,
    )


# ---------------------------------------------------------------------------
# configuration units


class TestParseTargetToken:
    def test_plain_path_defaults_to_head(self):
        assert _parse_target_token("/repos/fork") == ("/repos/fork", "HEAD")

    def test_path_with_rev(self):
        assert _parse_target_token("/repos/fork,v1.2") == ("/repos/fork", "v1.2")

    def test_splits_on_first_comma_only(self):
        assert _parse_target_token("fork,feature,x") == ("fork", "feature,x")

    def test_trailing_comma_means_head(self):
        assert _parse_target_token("fork,") == ("fork", "HEAD")

    @pytest.mark.parametrize("token", ["", ",v1.2"])
    def test_empty_path_rejected(self, token):
        with pytest.raises(ConfigError):
            _parse_target_token(token)


def _sweep_r(*r: str) -> list[float]:
    return _parser().parse_args(["sweep-r", "--pairs", "p", "--r", *r]).r


class TestParseRSpec:
    def test_single_value(self):
        assert _sweep_r("0.95") == [0.95]
        assert _sweep_r("0.15", "0.55", "0.95") == [0.15, 0.55, 0.95]

    @pytest.mark.parametrize("spec", ["0.8:1.0", "a:b:c", "fast", "", "0.9:0.1:0.2"])
    def test_malformed_spec_rejected(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            _sweep_r(spec)
        assert exc.value.code == 2
        assert f"--r: invalid float value: '{spec}'" in capsys.readouterr().err


class TestUniqueNames:
    def test_unique_basenames_kept(self):
        targets = [("/a/fork1", "HEAD"), ("/b/fork2", "HEAD")]
        assert _unique_names(targets) == ["fork1", "fork2"]

    def test_collisions_fall_back_to_full_path(self):
        targets = [("/a/clone", "HEAD"), ("/b/clone", "HEAD"), ("/c/other", "HEAD")]
        assert _unique_names(targets) == ["/a/clone", "/b/clone", "other"]


def _ns(*argv: str, **overrides) -> argparse.Namespace:
    """`detect ARGV` as the command line parser reads it, then `overrides`."""
    args = _parser().parse_args(["detect", *argv])
    vars(args).update(overrides)
    return args


class TestBuildConfig:
    @pytest.fixture()
    def dirs(self, tmp_path):
        src = tmp_path / "src"
        tgt = tmp_path / "tgt"
        src.mkdir()
        tgt.mkdir()
        return SimpleNamespace(root=tmp_path, src=src, tgt=tgt)

    def test_defaults_from_flags_only(self, dirs):
        cfg = _build_config(
            _ns(source=str(dirs.src), patch=["abc123"], target=[str(dirs.tgt)])
        )
        assert cfg.source == str(dirs.src)
        assert cfg.patch_shas == ["abc123"]
        assert cfg.targets == [(str(dirs.tgt), "HEAD")]
        assert cfg.out == "report.json"

    def test_config_file_supplies_everything(self, dirs):
        # `@FILE` reads the flags from FILE, one argument per line.
        conf = dirs.root / "scan.args"
        lines = [
            f"--source={dirs.src}",
            "--patch=aaa",
            "--patch=bbb",
            f"--target={dirs.tgt},dev",
            f"--target={dirs.src}",
            "--out=deep/report.json",
        ]
        conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = _build_config(_ns(f"@{conf}"))
        assert cfg.source == str(dirs.src)
        assert cfg.patch_shas == ["aaa", "bbb"]
        assert cfg.targets == [(str(dirs.tgt), "dev"), (str(dirs.src), "HEAD")]
        assert cfg.out == "deep/report.json"

    def test_blank_lines_in_config_file_skipped(self, dirs):
        conf = dirs.root / "scan.args"
        conf.write_text(
            f"--source={dirs.src}\n\n--patch=aaa\n   \n--target={dirs.tgt}\n\n",
            encoding="utf-8",
        )
        cfg = _build_config(_ns(f"@{conf}"))
        assert (cfg.source, cfg.patch_shas) == (str(dirs.src), ["aaa"])
        assert cfg.targets == [(str(dirs.tgt), "HEAD")]

    def test_flags_beat_config(self, dirs):
        # A scalar takes the last value given, in the file or after it;
        # repeatable flags from both add up.
        conf = dirs.root / "scan.args"
        conf.write_text(
            f"--source={dirs.root}\n--out=file.json\n--patch=zzz\n--target={dirs.root}\n",
            encoding="utf-8",
        )
        cfg = _build_config(
            _ns(
                f"@{conf}",
                "--source", str(dirs.src),
                "--out", "flag.json",
                "--patch", "abc",
                "--target", str(dirs.tgt),
            )
        )
        assert cfg.source == str(dirs.src)
        assert cfg.out == "flag.json"
        assert cfg.patch_shas == ["zzz", "abc"]
        assert cfg.targets == [(str(dirs.root), "HEAD"), (str(dirs.tgt), "HEAD")]
        assert _build_config(_ns("--out", "flag.json", f"@{conf}")).out == "file.json"

    def test_manifest_extends_patch_list(self, dirs):
        manifest = dirs.root / "patches.txt"
        manifest.write_text(
            "# backlog\tnotes after the colon\n"
            "deadbeef: heap overflow fix\n"
            "cafe1234\n",
            encoding="utf-8",
        )
        cfg = _build_config(
            _ns(
                source=str(dirs.src),
                patch=["abc"],
                manifest=str(manifest),
                target=[str(dirs.tgt)],
            )
        )
        assert cfg.patch_shas == ["abc", "deadbeef", "cafe1234"]

    def test_bad_manifest_rejected(self, dirs):
        manifest = dirs.root / "patches.txt"
        manifest.write_text("???\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad manifest"):
            _build_config(
                _ns(
                    source=str(dirs.src),
                    manifest=str(manifest),
                    target=[str(dirs.tgt)],
                )
            )

    def test_non_utf8_manifest_line_rejected(self, dirs):
        # The byte is replaced, not a crash; the line is then no sha.
        manifest = dirs.root / "patches.txt"
        manifest.write_bytes(b"deadbeef\ncaf\xe9\n")
        with pytest.raises(ConfigError, match="bad manifest"):
            _build_config(
                _ns(
                    source=str(dirs.src),
                    manifest=str(manifest),
                    target=[str(dirs.tgt)],
                )
            )

    def test_missing_source_rejected(self, dirs):
        with pytest.raises(ConfigError, match="source"):
            _build_config(_ns(patch=["abc"], target=[str(dirs.tgt)]))

    def test_no_patches_rejected(self, dirs):
        with pytest.raises(ConfigError, match="no patches"):
            _build_config(_ns(source=str(dirs.src), target=[str(dirs.tgt)]))

    def test_no_targets_rejected(self, dirs):
        with pytest.raises(ConfigError, match="target"):
            _build_config(_ns(source=str(dirs.src), patch=["abc"]))

    def test_unparsable_number_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _ns("--jobs", "fast")
        assert exc.value.code == 2
        assert "--jobs: invalid int value: 'fast'" in capsys.readouterr().err

    def test_t_below_key_statement_gate_rejected(self, dirs, capsys):
        # t is fixed at T, which is not below the key-statement gate; a
        # config file that still sets t is refused whole, and --t is not
        # read as an abbreviated --target.
        conf = dirs.root / "scan.args"
        conf.write_text(
            f"--source={dirs.src}\n--patch=abc\n--target={dirs.tgt}\n--t=0.2\n",
            encoding="utf-8",
        )
        with pytest.raises(SystemExit) as exc:
            _ns(f"@{conf}")
        assert exc.value.code == 2
        assert "unrecognized arguments: --t=0.2" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["source", "target", "patch_file"])
    def test_missing_paths_rejected(self, dirs, field):
        missing = str(dirs.root / "nope")
        kw = dict(source=str(dirs.src), patch=["abc"], target=[str(dirs.tgt)])
        if field == "source":
            kw["source"] = missing
        elif field == "target":
            kw["target"] = [missing]
        else:
            kw["patch"] = []
            kw["patch_file"] = [missing]
        with pytest.raises(ConfigError, match="does not exist"):
            _build_config(_ns(**kw))

    def test_unreadable_config_rejected(self, dirs, capsys):
        with pytest.raises(SystemExit) as exc:
            _ns(f"@{dirs.root / 'absent.args'}")
        assert exc.value.code == 2
        assert "absent.args" in capsys.readouterr().err

    def test_non_utf8_config_file_exits_2(self, dirs, tmp_path):
        # Python 3.10 and 3.11 decode an @FILE strictly in argparse; later
        # versions escape the byte, and this config then names no patch.
        conf = dirs.root / "scan.args"
        conf.write_bytes(b"detect\n--source=caf\xe9\n")
        src = Path(forkscan.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "forkscan.cli", f"@{conf}"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            cwd=tmp_path,
        )
        assert proc.returncode == 2, proc.stderr
        assert b"Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# detect end to end


def _rows(out: Path) -> list[dict]:
    return json.loads(out.read_text(encoding="utf-8"))["results"]


def _detect(world, targets, out, extra=()) -> int:
    argv = ["detect", "--source", str(world.src), "--patch", world.patch_sha]
    for t in targets:
        argv += ["--target", str(t)]
    argv += ["--out", str(out), *extra]
    return main(argv)


class TestDetectEndToEnd:
    def test_vulnerable_target(self, world, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert _detect(world, [world.vuln], out) == 1

        rows = _rows(out)
        assert [r["target"] for r in rows] == ["vulnfork"]
        row = rows[0]
        assert row["patch"] == world.patch_sha
        assert row["status"] == "Vulnerable"
        assert row["conf"] == pytest.approx(0.6)
        assert row["path"] == "src/validation.cpp"
        assert row["span"] == [8, 8]
        assert row["s_del"] == pytest.approx(1.0)
        assert row["s_add"] is not None and 0.0 < row["s_add"] < 1.0
        assert row["ctx_sim_up"] == pytest.approx(1.0)
        assert row["ctx_sim_down"] == pytest.approx(1.0)
        assert row["delay"] is None
        assert (
            "vulnfork: 1 vulnerable, 0 fixed, 0 context-not-found"
            in capsys.readouterr().out
        )

    def test_fixed_target_delay_and_artifacts(self, world, tmp_path):
        out_dir = tmp_path / "nested" / "deep"
        out = out_dir / "scan.json"
        assert _detect(world, [world.fixed], out) == 0

        row = _rows(out)[0]
        assert row["status"] == "Fixed"
        assert row["conf"] == pytest.approx(0.6)
        assert row["s_add"] == pytest.approx(1.0)
        assert row["delay"] == {
            "true_fix": world.backport_sha,
            "release_tag": "v2.0.0",
            "release_date": "2021-12-01T00:00:00+00:00",
            "delay_days": 183,
        }

        csv_text = (out_dir / "scan.csv").read_text(encoding="utf-8")
        header, data = csv_text.splitlines()[:2]
        assert header.startswith("patch,target,status")
        assert "183" in data and "v2.0.0" in data
        cdf = (out_dir / "delay_cdf.csv").read_text(encoding="utf-8")
        assert cdf.splitlines() == ["value,cum_fraction", "183.0,1.0"]

    def test_clean_target_reports_context_not_found(self, world, tmp_path):
        out = tmp_path / "report.json"
        assert _detect(world, [world.clean], out) == 0

        row = _rows(out)[0]
        assert row["status"] == "ContextNotFound"
        assert row["conf"] == 0.0
        assert row["path"] is None and row["span"] is None
        assert row["note"] == ""
        assert not (tmp_path / "delay_cdf.csv").exists()

    def test_three_targets_summary_and_row_order(self, world, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = _detect(world, [world.vuln, world.fixed, world.clean], out)
        assert code == 1

        assert [(r["target"], r["status"]) for r in _rows(out)] == [
            ("cleanfork", "ContextNotFound"),
            ("fixedfork", "Fixed"),
            ("vulnfork", "Vulnerable"),
        ]
        printed = [l for l in capsys.readouterr().out.splitlines() if l]
        assert printed == [
            "cleanfork: 0 vulnerable, 0 fixed, 1 context-not-found",
            "fixedfork: 0 vulnerable, 1 fixed, 0 context-not-found",
            "vulnfork: 1 vulnerable, 0 fixed, 0 context-not-found",
        ]

    def test_degraded_target_keeps_run_alive(self, world, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert _detect(world, [world.plain, world.fixed], out) == 0

        by_target = {r["target"]: r for r in _rows(out)}
        bad = by_target["notarepo"]
        assert bad["status"] == "ContextNotFound"
        assert bad["note"].startswith("target unusable:")
        assert by_target["fixedfork"]["status"] == "Fixed"
        assert (
            "notarepo: 0 vulnerable, 0 fixed, 1 context-not-found"
            in capsys.readouterr().out
        )

    def test_warning_names_cli_module_when_run_with_dash_m(self, world, tmp_path):
        src = Path(forkscan.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "forkscan.cli", "detect", "--source", str(world.src),
             "--patch", world.patch_sha, "--target", str(world.plain),
             "--out", str(tmp_path / "report.json")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            f"WARNING forkscan.cli: target {world.plain} unusable: "
            f"not a git repository: {world.plain}\n"
        )

    def test_duplicate_targets_named_by_path(self, world, tmp_path):
        # Two repositories that share a directory name.
        twin = tmp_path / "mirror" / world.vuln.name
        run_git(tmp_path, "clone", "-q", str(world.vuln), str(twin))
        out = tmp_path / "report.json"
        assert _detect(world, [world.vuln, twin], out) == 1

        rows = _rows(out)
        assert sorted(r["target"] for r in rows) == sorted([str(world.vuln), str(twin)])
        assert {r["status"] for r in rows} == {"Vulnerable"}

    def test_one_repo_at_two_revisions_gets_two_names(self, world, tmp_path, capsys):
        out = tmp_path / "report.json"
        old, new = f"{world.fixed},HEAD~1", f"{world.fixed},HEAD"
        assert _detect(world, [old, new], out) == 1

        assert [(r["target"], r["status"]) for r in _rows(out)] == [
            (new, "Fixed"),
            (old, "Vulnerable"),
        ]
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [t["name"] for t in data["targets"]] == [old, new]
        printed = [l for l in capsys.readouterr().out.splitlines() if l]
        assert printed == [
            f"{new}: 0 vulnerable, 1 fixed, 0 context-not-found",
            f"{old}: 1 vulnerable, 0 fixed, 0 context-not-found",
        ]

    def test_scan_without_delay_removes_old_cdf(self, world, tmp_path):
        out = tmp_path / "report.json"
        assert _detect(world, [world.fixed], out) == 0
        assert (tmp_path / "delay_cdf.csv").exists()
        assert _detect(world, [world.clean], out) == 0
        assert not (tmp_path / "delay_cdf.csv").exists()

    def test_rescan_is_byte_identical(self, world, tmp_path):
        first = tmp_path / "one" / "report.json"
        second = tmp_path / "two" / "report.json"
        _detect(world, [world.vuln, world.fixed, world.clean], first)
        _detect(world, [world.vuln, world.fixed, world.clean], second)
        assert first.read_bytes() == second.read_bytes()

    def test_short_sha_labels_its_rows(self, world, tmp_path):
        short = world.patch_sha[:10]
        out = tmp_path / "report.json"
        argv = ["detect", "--source", str(world.src), "--patch", short,
                "--target", str(world.fixed), "--out", str(out)]
        assert main(argv) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [(p["label"], p["sha"]) for p in data["patches"]] == [
            (short, world.patch_sha)
        ]
        assert [r["patch"] for r in data["results"]] == [short]

    def test_report_metadata(self, world, tmp_path):
        out = tmp_path / "report.json"
        _detect(world, [world.fixed], out)
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["tool_version"] == __version__
        assert data["params"] == {
            "r": 0.95,
            "t": 0.4,
            "ks_threshold": 0.25,
            "context_lines": 5,
            "max_candidates": 10,
        }
        assert data["patches"] == [
            {
                "label": world.patch_sha,
                "sha": world.patch_sha,
                "committed_at": "2021-06-01T00:00:00+00:00",
                "hunks": 1,
            }
        ]
        assert data["targets"] == [
            {"name": "fixedfork", "path": str(world.fixed), "rev": "HEAD"}
        ]


class TestOneTargetAtATime:
    """detect opens a target when it reaches it, judges every patch against
    it, looks up its fixes and builds its rows, then drops it."""

    def test_each_target_is_released_before_the_next_opens(
        self, world, tmp_path, monkeypatch
    ):
        opened: list[weakref.ref] = []
        alive_at_open: list[int] = []

        class Tracked(forkscan.search.StatementCache):
            def __init__(self, *args):
                gc.collect()
                alive_at_open.append(sum(ref() is not None for ref in opened))
                super().__init__(*args)
                opened.append(weakref.ref(self))

        monkeypatch.setattr(forkscan.search, "StatementCache", Tracked)
        out = tmp_path / "report.json"
        assert _detect(world, [world.vuln, world.fixed, world.clean], out) == 1
        assert len(opened) == 3
        assert alive_at_open == [0, 0, 0]

    def test_failed_delay_lookup_keeps_no_target_alive(
        self, world, tmp_path, monkeypatch
    ):
        # The error kept for a region's rows must not hold the lookup's
        # frames: without the cycle collector, nothing else frees them.
        opened: list[weakref.ref] = []
        alive_at_open: list[int] = []

        class Tracked(forkscan.search.StatementCache):
            def __init__(self, *args):
                alive_at_open.append(sum(ref() is not None for ref in opened))
                super().__init__(*args)
                opened.append(weakref.ref(self))

        def fail(*args):
            raise forkscan.gitio.GitError("tags unreadable")

        monkeypatch.setattr(forkscan.search, "StatementCache", Tracked)
        monkeypatch.setattr(forkscan.delay, "fix_delay", fail)
        fixed_twin = tmp_path / "twin" / world.fixed.name
        run_git(tmp_path, "clone", "-q", str(world.fixed), str(fixed_twin))
        out = tmp_path / "report.json"
        gc.disable()
        try:
            assert _detect(world, [world.fixed, fixed_twin, world.clean], out) == 0
        finally:
            gc.enable()
        assert alive_at_open == [0, 0, 0]
        assert {r["note"] for r in _rows(out) if r["status"] == "Fixed"} == {
            "delay: tags unreadable"
        }

    def test_target_order_changes_only_the_target_list(self, world, tmp_path, capsys):
        targets = [world.vuln, world.fixed, world.clean]
        runs = []
        for name, order in (("given", targets), ("reversed", targets[::-1])):
            out = tmp_path / name / "report.json"
            code = _detect(world, order, out)
            data = json.loads(out.read_text(encoding="utf-8"))
            runs.append((
                code,
                [t["name"] for t in data.pop("targets")],
                data,
                out.with_suffix(".csv").read_bytes(),
                (out.parent / "delay_cdf.csv").read_bytes(),
                capsys.readouterr().out,
            ))
        (code, names, *rest), (r_code, r_names, *r_rest) = runs
        assert names == ["vulnfork", "fixedfork", "cleanfork"] == r_names[::-1]
        assert (code, *rest) == (r_code, *r_rest)

    def test_unusable_target_is_warned_about_when_reached(
        self, world, tmp_path, monkeypatch, capsys
    ):
        plain = tmp_path / "plain" / "report.json"
        _detect(world, [world.fixed, world.vuln], plain)
        want = _rows(plain)
        capsys.readouterr()

        events = _record_git(monkeypatch)
        real_warn = forkscan.cli.warn

        def warn(source, message):
            events.append((None, ["warning"]))
            real_warn(source, message)

        monkeypatch.setattr(forkscan.cli, "warn", warn)
        out = tmp_path / "report.json"
        assert _detect(world, [world.fixed, world.plain, world.vuln], out) == 1

        # The fixed fork is opened, judged and looked up before the plain
        # directory is reached; the vulnerable fork opens after its warning.
        assert [(root and root.name, args[0]) for root, args in events] == [
            ("upstream", "cat-file"), ("upstream", "diff-tree"),
            ("fixedfork", "grep"), ("fixedfork", "cat-file"),
            ("fixedfork", "blame"), ("fixedfork", "tag"),
            ("notarepo", "grep"), (None, "warning"),
            ("vulnfork", "grep"), ("vulnfork", "cat-file"),
        ]
        assert capsys.readouterr().err == (
            f"WARNING forkscan.cli: target {world.plain} unusable: "
            f"not a git repository: {world.plain}\n"
        )
        rows = _rows(out)
        (bad,) = [r for r in rows if r["target"] == "notarepo"]
        assert bad["status"] == "ContextNotFound"
        assert bad["note"] == f"target unusable: not a git repository: {world.plain}"
        assert [r for r in rows if r["target"] != "notarepo"] == want


class TestUnusualBytes:
    """Bytes that git hands over verbatim end a scan in rows, not a crash."""

    def test_nul_inside_a_hit_line(self, tmp_path):
        # git takes a file for binary only if a NUL comes early in it, so a
        # grep hit may hold one; the hit after it is read as it is.
        target = init_repo(tmp_path / "nulfork")
        filler = "".join(f"int f{i}() {{ return {i}; }}\n" for i in range(598))
        write_files(target, {"a.cpp": filler + 'LogPrintf("c\0d");\nLogPrintf("e");\n'})
        commit_all(target, "import", datetime(2021, 1, 1, tzinfo=UTC))
        diff = tmp_path / "one.diff"
        diff.write_text(
            "diff --git a/a.cpp b/a.cpp\n--- a/a.cpp\n+++ b/a.cpp\n"
            '@@ -1,3 +1,3 @@\n LogPrintf("a");\n-int x = 1;\n+int x = 2;\n'
            ' LogPrintf("b");\n',
            encoding="utf-8",
        )
        out = tmp_path / "report.json"
        argv = ["detect", "--source", str(target), "--patch-file", str(diff),
                "--target", str(target), "--out", str(out)]
        assert main(argv) == 0
        (row,) = _rows(out)
        assert (row["target"], row["status"], row["note"]) == (
            "nulfork", "ContextNotFound", ""
        )

    def test_non_utf8_directory_name(self, tmp_path):
        # The name reaches forkscan with surrogate escapes: the CSV carries
        # its own bytes, report.json a \udcXX escape, and a strict stdout
        # an escape too.
        try:
            repo = init_repo(tmp_path / os.fsdecode(b"caf\xe9"))
        except (OSError, UnicodeError):
            pytest.skip("the filesystem refuses a non-UTF-8 name")
        write_files(repo, {"src/validation.cpp": _validation_cpp(VULN_LINE)})
        commit_all(repo, "import", datetime(2021, 1, 1, tzinfo=UTC))
        write_files(repo, {"src/validation.cpp": _validation_cpp(FIXED_LINE)})
        sha = commit_all(repo, "harden", datetime(2021, 6, 1, tzinfo=UTC))
        tag_annotated(repo, "v1.0", datetime(2021, 7, 1, tzinfo=UTC))
        src = Path(forkscan.__file__).resolve().parent.parent
        out = tmp_path / "out" / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "forkscan.cli", "detect", "--source", str(repo),
             "--patch", sha, "--target", str(repo), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8:strict"),
            capture_output=True,
        )
        assert b"Traceback" not in proc.stderr, proc.stderr.decode("utf-8", "replace")
        assert proc.returncode in (0, 1)
        assert f"{sha},".encode() + b"caf\xe9," in out.with_suffix(".csv").read_bytes()
        assert '"target": "caf\\udce9"' in out.read_text(encoding="ascii")
        assert proc.stdout.startswith(b"caf\\udce9: ")


class TestScanFailureNotes:
    """A failure inside one (patch, target) scan becomes that row's note;
    the other rows and the run go on."""

    def test_search_failure_notes_its_hunk(self, world, tmp_path, monkeypatch):
        targets = [world.vuln, world.fixed]
        plain = tmp_path / "plain" / "report.json"
        assert _detect(world, targets, plain) == 1

        real = forkscan.search.collect_candidates

        def collect(cache, *args):
            if cache.repo.root == world.vuln:
                raise RuntimeError("grep exploded")
            return real(cache, *args)

        monkeypatch.setattr(forkscan.search, "collect_candidates", collect)
        out = tmp_path / "broken" / "report.json"
        assert _detect(world, targets, out) == 0  # only the Fixed row is left

        rows = {r["target"]: r for r in _rows(out)}
        want = {r["target"]: r for r in _rows(plain)}
        assert rows["vulnfork"]["status"] == "ContextNotFound"
        assert rows["vulnfork"]["conf"] == 0.0
        assert rows["vulnfork"]["note"] == "hunk 0: grep exploded"
        assert rows["fixedfork"] == want["fixedfork"]

    def test_delay_failure_notes_fixed_row(self, world, tmp_path, monkeypatch, capsys):
        def releases(repo, sha):
            raise forkscan.gitio.GitError("tags unreadable")

        monkeypatch.setattr(forkscan.gitio, "releases_containing", releases)
        out = tmp_path / "report.json"
        assert _detect(world, [world.fixed, world.clean], out) == 0
        assert capsys.readouterr().err == (
            "WARNING forkscan.cli: delay lookup failed for fixedfork: tags unreadable\n"
        )

        rows = {r["target"]: r for r in _rows(out)}
        fixed = rows["fixedfork"]
        assert fixed["status"] == "Fixed"
        assert fixed["note"] == "delay: tags unreadable"
        assert fixed["delay"] is None
        assert rows["cleanfork"]["status"] == "ContextNotFound"
        assert rows["cleanfork"]["note"] == ""
        assert not (tmp_path / "delay_cdf.csv").exists()

    def _two_patches_one_region(self, world, tmp_path) -> list[str]:
        """detect argv: the fix as a commit and as a diff file, so two
        Fixed rows of the fixed fork land on one region."""
        diff_text = run_git(
            world.src, "diff", "-U5", f"{world.patch_sha}^", world.patch_sha
        )
        diff_file = tmp_path / "fix.diff"
        diff_file.write_text(diff_text + "\n", encoding="utf-8")
        return ["detect", "--source", str(world.src), "--patch", world.patch_sha,
                "--patch-file", str(diff_file), "--target", str(world.fixed),
                "--out", str(tmp_path / "out" / "report.json")]

    def test_one_delay_lookup_per_region(self, world, tmp_path, monkeypatch):
        calls = _record_git(monkeypatch)
        assert main(self._two_patches_one_region(world, tmp_path)) == 0

        commit_row, file_row = _rows(tmp_path / "out" / "report.json")
        assert commit_row["status"] == file_row["status"] == "Fixed"
        assert (commit_row["path"], commit_row["span"]) == (
            file_row["path"], file_row["span"]
        )
        lookups = [args[0] for root, args in calls if args[0] in ("blame", "tag")]
        assert lookups == ["blame", "tag"]
        # Each row's delay comes from its own patch date; a diff file has none.
        assert commit_row["delay"]["delay_days"] is not None
        assert file_row["delay"] == {**commit_row["delay"], "delay_days": None}

    def test_delay_failure_notes_every_row_of_the_region(self, world, tmp_path,
                                                          monkeypatch):
        def releases(repo, sha):
            raise forkscan.gitio.GitError("tags unreadable")

        monkeypatch.setattr(forkscan.gitio, "releases_containing", releases)
        assert main(self._two_patches_one_region(world, tmp_path)) == 0
        for row in _rows(tmp_path / "out" / "report.json"):
            assert row["status"] == "Fixed"
            assert row["note"] == "delay: tags unreadable"
            assert row["delay"] is None

    def test_failed_region_is_looked_up_and_warned_once(self, world, tmp_path,
                                                        monkeypatch, capsys):
        def releases(repo, sha):
            raise forkscan.gitio.GitError("tags unreadable")

        monkeypatch.setattr(forkscan.gitio, "releases_containing", releases)
        calls = _record_git(monkeypatch)
        assert main(self._two_patches_one_region(world, tmp_path)) == 0
        assert [args[0] for _, args in calls].count("blame") == 1
        assert capsys.readouterr().err == (
            "WARNING forkscan.cli: delay lookup failed for fixedfork: tags unreadable\n"
        )
        rows = _rows(tmp_path / "out" / "report.json")
        assert [row["note"] for row in rows] == ["delay: tags unreadable"] * 2

    def test_blame_failure_notes_fixed_row(self, world, tmp_path, monkeypatch):
        # git blame itself fails: the region lies past the file's end.
        monkeypatch.setattr(forkscan.delay, "blame_span", lambda cand: (9000, 9001))
        out = tmp_path / "report.json"
        assert _detect(world, [world.fixed], out) == 0

        (fixed,) = _rows(out)
        assert fixed["status"] == "Fixed"
        assert fixed["note"].startswith("delay: blame range 9000..9001 out of bounds")
        assert fixed["delay"] is None


def _net_cpp(middle: str) -> str:
    lines = [
        '#include "net.h"',
        "",
        "void CConnman::ThreadSocketHandler()",
        "{",
        "    int nInbound = CountInboundPeers();",
        "    std::vector<CNode*> vNodesCopy = GetNodesCopy();",
        "    LOCK(cs_vNodesDisconnected);",
        "    " + middle,
        "    size_t nSendSize = pnode->nSendSize;",
        '    LogPrint(BCLog::NET, "socket handler done\\n");',
        "    ReleaseNodeVector(vNodesCopy);",
        "}",
    ]
    return "\n".join(lines) + "\n"


def _wallet_cpp(middle: str) -> str:
    lines = [
        '#include "wallet.h"',
        "",
        "bool CWallet::CommitTransaction(CTransactionRef tx)",
        "{",
        "    LOCK2(cs_main, cs_wallet);",
        '    WalletLogPrintf("CommitTransaction:\\n%s", tx->ToString());',
        "    CWalletTx wtxNew(this, std::move(tx));",
        "    " + middle,
        "    AddToWallet(wtxNew);",
        "    NotifyTransactionChanged(this, wtxNew.GetHash(), CT_NEW);",
        "    return true;",
        "}",
    ]
    return "\n".join(lines) + "\n"


THREE_FIXES = [
    ("src/validation.cpp", _validation_cpp, VULN_LINE, FIXED_LINE),
    ("src/net.cpp", _net_cpp,
     "if (nInbound > nMaxInbound) return;",
     "if (nInbound >= nMaxInbound) { DisconnectExcessInbound(); return; }"),
    ("src/wallet.cpp", _wallet_cpp,
     "wtxNew.fTimeReceivedIsTxTime = true;",
     "if (!wtxNew.IsTrusted()) return false; wtxNew.fTimeReceivedIsTxTime = true;"),
]


@pytest.fixture(scope="module")
def three_world(tmp_path_factory):
    """Three one-line fixes in three files of one upstream; one fork holds
    all three vulnerable, the other all three fixed."""
    base = tmp_path_factory.mktemp("threeworld")
    vulnerable = {path: make(old) for path, make, old, _ in THREE_FIXES}

    src = init_repo(base / "upstream")
    write_files(src, vulnerable)
    commit_all(src, "import", datetime(2021, 1, 1, tzinfo=UTC))
    shas = []
    for month, (path, make, _, new) in enumerate(THREE_FIXES, 2):
        write_files(src, {path: make(new)})
        when = datetime(2021, month, 1, tzinfo=UTC)
        shas.append(commit_all(src, f"fix {path}", when))

    vuln = init_repo(base / "vulnfork")
    write_files(vuln, vulnerable)
    commit_all(vuln, "fork", datetime(2021, 6, 1, tzinfo=UTC))
    fixed = init_repo(base / "fixedfork")
    write_files(fixed, {path: make(new) for path, make, _, new in THREE_FIXES})
    commit_all(fixed, "fork with fixes", datetime(2021, 6, 1, tzinfo=UTC))
    return SimpleNamespace(src=src, shas=shas, vuln=vuln, fixed=fixed)


def _detect_three(world, targets, out) -> int:
    argv = ["detect", "--source", str(world.src)]
    for sha in world.shas:
        argv += ["--patch", sha]
    for t in targets:
        argv += ["--target", str(t)]
    return main([*argv, "--out", str(out)])


def _record_git(monkeypatch) -> list[tuple[Path, list[str]]]:
    """(repository, args) of every git call forkscan makes from now on."""
    calls: list[tuple[Path, list[str]]] = []
    real = forkscan.gitio.RepoHandle._run

    def run(self, args, input=None):
        calls.append((self.root, list(args)))
        return real(self, args, input)

    monkeypatch.setattr(forkscan.gitio.RepoHandle, "_run", run)
    return calls


class TestGitProcesses:
    """A scan greps each target once, for every patch's context keywords,
    reads the files holding hits with one more git call per target, reads
    all patches with two git calls, and looks up each Fixed region's delay
    facts once. Opening a repository runs no git."""

    def test_one_grep_per_target_and_no_commit_lookup(self, three_world, tmp_path,
                                                     monkeypatch):
        calls = _record_git(monkeypatch)
        out = tmp_path / "report.json"
        targets = [three_world.vuln, three_world.fixed]
        assert _detect_three(three_world, targets, out) == 1

        rows = _rows(out)
        assert [(r["target"], r["status"]) for r in rows] == [
            ("fixedfork", "Fixed"), ("vulnfork", "Vulnerable"),
        ] * 3
        greps = [root for root, args in calls if args[0] == "grep"]
        assert sorted(greps) == sorted([three_world.fixed, three_world.vuln])
        assert [args for _, args in calls if args[:2] == ["show", "-s"]] == []
        patch_reads = [(root, args[0]) for root, args in calls
                       if root == three_world.src]
        assert patch_reads == [(three_world.src, "cat-file"),
                               (three_world.src, "diff-tree")]
        file_reads = [root for root, args in calls
                      if root != three_world.src and args[0] == "cat-file"]
        assert sorted(file_reads) == sorted([three_world.fixed, three_world.vuln])
        # The whole budget: two calls for all patches, one grep and one
        # file read per target, and one blame and one tag --contains per
        # distinct Fixed region: 12.
        regions = {(r["target"], r["path"], tuple(r["span"]))
                   for r in rows if r["status"] == "Fixed"}
        assert len(regions) == 3
        assert Counter(args[0] for _, args in calls) == {
            "cat-file": 3, "diff-tree": 1, "grep": 2, "blame": 3, "tag": 3,
        }
        assert len(calls) == 2 + 2 * len(targets) + 2 * len(regions)

    def test_unknown_revision_notes_every_row(self, three_world, tmp_path,
                                              monkeypatch, capsys):
        plain = tmp_path / "plain" / "report.json"
        _detect_three(three_world, [three_world.fixed], plain)
        want = _rows(plain)

        calls = _record_git(monkeypatch)
        capsys.readouterr()
        bad = f"{three_world.vuln},no-such-rev"
        out = tmp_path / "report.json"
        assert _detect_three(three_world, [bad, three_world.fixed], out) == 0

        # Opening the target is its one grep and its one failure: one
        # warning line, and the same note on each of its rows.
        assert [args[0] for root, args in calls if root == three_world.vuln] == ["grep"]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"WARNING forkscan.cli: target {three_world.vuln} unusable: ")
        rows = _rows(out)
        assert [r for r in rows if r["target"] == "fixedfork"] == want
        broken = [r for r in rows if r["target"] == "vulnfork"]
        assert len(broken) == 3
        for row in broken:
            assert row["status"] == "ContextNotFound"
            assert row["note"].startswith("target unusable: git grep failed")
            assert "no-such-rev" in row["note"]
            assert "\n" not in row["note"]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestTracedDetect:
    """The benchmark's tracer wraps forkscan functions by name and counts
    from their positional arguments and results; a traced scan must run to
    forkscan's own exit code and write the untraced report."""

    def test_traced_scan_matches_untraced(self, world, tmp_path):
        targets = [world.vuln, world.fixed, world.clean]
        plain = tmp_path / "plain" / "report.json"
        code = _detect(world, targets, plain)

        traced = tmp_path / "traced" / "report.json"
        argv = ["detect", "--source", str(world.src), "--patch", world.patch_sha]
        for t in targets:
            argv += ["--target", str(t)]
        argv += ["--out", str(traced)]
        src = Path(forkscan.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
        trace_file = tmp_path / "trace.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_detect.py"), str(trace_file),
             *argv],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode != 4, proc.stderr  # a traced function escaped
        assert proc.returncode == code, proc.stderr
        for name in ("report.json", "report.csv", "delay_cdf.csv"):
            got, want = traced.parent / name, plain.parent / name
            assert got.read_bytes() == want.read_bytes(), name

        counts = json.loads(trace_file.read_text(encoding="utf-8"))["counts"]
        for key in ("patchmodel.hunks", "patchmodel.keywords",
                    "preprocess.extract_statements.lines_in", "simcore.strsim.cells",
                    "search.candidates", "verdict.decided", "delay.attributed"):
            assert counts.get(key, 0) > 0, key


class TestDetectFromConfigFile:
    """`forkscan detect @FILE` reads its flags from FILE, one per line."""

    def test_config_only_invocation(self, world, tmp_path, capsys):
        targets = [world.fixed, world.clean]
        flags = tmp_path / "flags" / "report.json"
        assert _detect(world, targets, flags) == 0
        printed = capsys.readouterr().out

        out = tmp_path / "file" / "report.json"
        conf = tmp_path / "scan.args"
        conf.write_text(
            f"--source\n{world.src}\n--patch={world.patch_sha}\n"
            + "".join(f"--target={t}\n" for t in targets)
            + f"--out={out}\n",
            encoding="utf-8",
        )
        assert main(["detect", f"@{conf}"]) == 0
        assert capsys.readouterr().out == printed
        for name in ("report.json", "report.csv", "delay_cdf.csv"):
            got, want = out.parent / name, flags.parent / name
            assert got.read_bytes() == want.read_bytes(), name

    def test_flag_after_file_wins_and_targets_add_up(self, world, tmp_path):
        in_file, on_line = tmp_path / "a" / "report.json", tmp_path / "b" / "report.json"
        conf = tmp_path / "scan.args"
        conf.write_text(
            f"--source={world.src}\n--patch={world.patch_sha}\n"
            f"--target={world.fixed}\n--out={in_file}\n",
            encoding="utf-8",
        )
        code = main(
            ["detect", f"@{conf}", "--target", str(world.vuln), "--out", str(on_line)]
        )
        assert code == 1
        assert not in_file.exists()
        assert [r["target"] for r in _rows(on_line)] == ["fixedfork", "vulnfork"]


class TestPatchFileRoute:
    def test_diff_file_scan(self, world, tmp_path):
        diff_text = run_git(
            world.src, "diff", "-U5", f"{world.patch_sha}^", world.patch_sha
        )
        diff_file = tmp_path / "fix-pruned.diff"
        diff_file.write_text(diff_text + "\n", encoding="utf-8")

        out = tmp_path / "report.json"
        code = main(
            [
                "detect",
                "--source",
                str(world.src),
                "--patch-file",
                str(diff_file),
                "--target",
                str(world.vuln),
                "--out",
                str(out),
            ]
        )
        assert code == 1

        data = json.loads(out.read_text(encoding="utf-8"))
        row = data["results"][0]
        assert row["patch"] == "fix-pruned.diff"
        assert row["status"] == "Vulnerable"
        assert row["span"] == [8, 8]
        assert data["patches"][0]["sha"] is None
        assert data["patches"][0]["committed_at"] is None

    def test_non_utf8_patch_file_scans(self, world, tmp_path):
        diff_text = run_git(
            world.src, "diff", "-U5", f"{world.patch_sha}^", world.patch_sha
        )
        diff_file = tmp_path / "fix-pruned.diff"
        diff_file.write_bytes(
            b"From: Ren\xe9 <rene@example.org>\n\n" + diff_text.encode("utf-8")
        )
        out = tmp_path / "report.json"
        code = main(
            ["detect", "--source", str(world.src), "--patch-file", str(diff_file),
             "--target", str(world.vuln), "--out", str(out)]
        )
        assert code == 1
        (row,) = _rows(out)
        assert row["status"] == "Vulnerable"
        assert row["span"] == [8, 8]

    def test_crlf_patch_file_reads_as_lf(self, world, tmp_path):
        diff_text = run_git(
            world.src, "diff", "-U5", f"{world.patch_sha}^", world.patch_sha
        )
        lf, crlf = tmp_path / "lf.diff", tmp_path / "crlf.diff"
        lf.write_bytes(diff_text.encode("utf-8"))
        crlf.write_bytes(diff_text.replace("\n", "\r\n").encode("utf-8"))
        config = RunConfig(str(world.src), [], [str(lf), str(crlf)], [], "r.json")
        lf_patch, crlf_patch = _load_patches(config)
        assert crlf_patch.hunks == lf_patch.hunks
        assert {s.path for h in crlf_patch.hunks for s in h.dp + h.ap} == {
            "src/validation.cpp"
        }

    def test_prose_patch_file_is_config_error(self, world, tmp_path, capsys):
        bad = tmp_path / "notes.diff"
        bad.write_text("this is not a unified diff\n", encoding="utf-8")
        code = main(
            [
                "detect",
                "--source",
                str(world.src),
                "--patch-file",
                str(bad),
                "--target",
                str(world.vuln),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDetectErrors:
    def test_missing_source_path_exits_2(self, world, tmp_path, capsys):
        code = main(
            [
                "detect",
                "--source",
                str(tmp_path / "nope"),
                "--patch",
                world.patch_sha,
                "--target",
                str(world.vuln),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_source_not_a_repo_exits_3(self, world, tmp_path, capsys):
        code = main(
            [
                "detect",
                "--source",
                str(world.plain),
                "--patch",
                world.patch_sha,
                "--target",
                str(world.vuln),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_git_exits_3(self, world, tmp_path):
        # With no git on PATH the first git query fails: one error line and
        # exit 3, not a traceback.
        src = Path(forkscan.__file__).resolve().parent.parent
        empty_bin = tmp_path / "bin"
        empty_bin.mkdir()
        proc = subprocess.run(
            [os.path.abspath(sys.executable), "-m", "forkscan.cli", "detect",
             "--source", str(world.src), "--patch", world.patch_sha,
             "--target", str(world.vuln), "--out", str(tmp_path / "report.json")],
            env=dict(os.environ, PATH=str(empty_bin), PYTHONPATH=str(src)),
            capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot run git: ")
        assert proc.stderr.count("\n") == 1

    def test_unknown_patch_sha_exits_3(self, world, tmp_path):
        code = _detect(world, [world.vuln], tmp_path / "r.json")
        assert code == 1  # control: the world itself is scannable
        argv = [
            "detect",
            "--source",
            str(world.src),
            "--patch",
            "0" * 40,
            "--target",
            str(world.vuln),
            "--out",
            str(tmp_path / "r2.json"),
        ]
        assert main(argv) == 3

    def test_no_targets_exits_2(self, world, tmp_path, capsys):
        code = main(
            [
                "detect",
                "--source",
                str(world.src),
                "--patch",
                world.patch_sha,
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "--target" in capsys.readouterr().err

    def test_config_flag_is_unrecognized(self, world, tmp_path, capsys):
        conf = tmp_path / "scan.cfg"
        conf.write_text("context_lines = 5\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            _detect(world, [world.vuln], tmp_path / "r.json", ["--config", str(conf)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "flag", ["--ks-threshold", "--context-lines", "--max-candidates", "--r", "--t"]
    )
    def test_fixed_search_constant_is_unrecognized(self, world, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            _detect(world, [world.vuln], tmp_path / "r.json", [flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_repeated_target_exits_2(self, world, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert _detect(world, [world.vuln, world.vuln], out) == 2
        assert f"two targets are named {world.vuln}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_patch_exits_2(self, world, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert _detect(world, [world.vuln], out, ["--patch", world.patch_sha]) == 2
        assert f"two patches are labelled {world.patch_sha}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_commit_given_twice_exits_2(self, world, tmp_path, capsys):
        out = tmp_path / "r.json"
        short = world.patch_sha[:10]
        assert _detect(world, [world.vuln], out, ["--patch", short]) == 2
        assert f"two patches are commit {world.patch_sha}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_commit_given_twice_fails_before_any_diff(self, world, tmp_path,
                                                          capsys, monkeypatch):
        calls = _record_git(monkeypatch)
        out = tmp_path / "r.json"
        argv = ["detect", "--source", str(world.src), "--target", str(world.vuln),
                "--patch", world.patch_sha[:7], "--patch", world.patch_sha,
                "--out", str(out)]
        assert main(argv) == 2
        assert f"two patches are commit {world.patch_sha}" in capsys.readouterr().err
        assert [args[0] for root, args in calls if root == world.src] == ["cat-file"]
        assert not out.exists()

    def test_empty_commit_exits_3(self, world, tmp_path, capsys):
        root = init_repo(tmp_path / "emptysrc")
        run_git(root, "commit", "-q", "--allow-empty", "-m", "nothing",
                date=datetime(2021, 1, 1, tzinfo=UTC))
        sha = run_git(root, "rev-parse", "HEAD")
        argv = ["detect", "--source", str(root), "--patch", sha,
                "--target", str(world.vuln), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 3
        assert "no file hunks found" in capsys.readouterr().err

    def test_patch_files_sharing_a_name_exit_2(self, world, tmp_path, capsys):
        diff_text = run_git(
            world.src, "diff", "-U5", f"{world.patch_sha}^", world.patch_sha
        )
        files = [tmp_path / d / "fix.diff" for d in ("one", "two")]
        for f in files:
            f.parent.mkdir()
            f.write_text(diff_text + "\n", encoding="utf-8")
        out = tmp_path / "r.json"
        argv = ["detect", "--source", str(world.src), "--target", str(world.vuln),
                "--patch-file", str(files[0]), "--patch-file", str(files[1]),
                "--out", str(out)]
        assert main(argv) == 2
        assert "two patches are labelled fix.diff" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_a_directory_exits_2(self, world, tmp_path, capsys, monkeypatch):
        # A scan whose only row is Fixed would exit 0; no patch is even loaded.
        loaded = []
        monkeypatch.setattr(forkscan.patchmodel, "load_patch",
                            lambda diff_text, label: loaded.append(label))
        out = tmp_path / "taken"
        out.mkdir()
        assert _detect(world, [world.fixed], out) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}:" in err
        assert "Traceback" not in err
        assert loaded == []

    def test_csv_beside_report_is_a_directory_exits_2(self, world, tmp_path, capsys):
        out = tmp_path / "report.json"
        (tmp_path / "report.csv").mkdir()
        assert _detect(world, [world.fixed], out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("below", ["report.json", "sub/dir/report.json"])
    def test_out_below_a_file_exits_2(self, world, tmp_path, capsys, monkeypatch, below):
        # The nearest existing ancestor of --out is a regular file: no
        # directory can be made there, so the scan is refused before it starts.
        loaded = []
        monkeypatch.setattr(forkscan.patchmodel, "load_patch",
                            lambda diff_text, label: loaded.append(label))
        afile = tmp_path / "afile"
        afile.write_text("keep\n", encoding="utf-8")
        out = afile / below
        assert _detect(world, [world.fixed], out) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: {afile} is not a directory" in err
        assert "Traceback" not in err
        assert loaded == []
        assert afile.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize(
        "name", ["r.csv", "delay_cdf.json", "delay_cdf.csv", "delay_cdf"]
    )
    def test_out_sharing_a_path_with_its_csv_or_cdf_exits_2(
        self, world, tmp_path, capsys, monkeypatch, name
    ):
        # The CSV is --out with the suffix .csv and the CDF is delay_cdf.csv
        # beside it; were two of the three one path, a scan would overwrite
        # one report with another.
        loaded = []
        monkeypatch.setattr(forkscan.patchmodel, "load_patch",
                            lambda diff_text, label: loaded.append(label))
        out = tmp_path / "o" / name
        assert _detect(world, [world.fixed], out) == 2
        err = capsys.readouterr().err
        assert (f"error: cannot write {out}: the report, its .csv and "
                "delay_cdf.csv need three distinct paths") in err
        assert loaded == []
        assert not out.parent.exists()

    def test_jobs_other_than_one_exits_2(self, world, tmp_path, capsys):
        # Scans run on one thread; `--jobs 1` is still accepted.
        assert _detect(world, [world.vuln], tmp_path / "one.json", ["--jobs", "1"]) == 1
        with pytest.raises(SystemExit) as exc:
            _detect(world, [world.vuln], tmp_path / "four.json", ["--jobs", "4"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "four.json").exists()


class TestReadme:
    def test_detect_table_lists_every_detect_flag(self):
        # The README's `detect options` table and the parser name the same
        # flags with the same defaults, so neither can change in one place only.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## detect options", 1)[1].split("\n#", 1)[0]
        documented = dict(
            re.findall(r"^\| `(--[a-z-]+)[^`]*` \|([^|]*)\|", section, re.MULTILINE)
        )
        parser = argparse.ArgumentParser()
        _add_detect_flags(parser)
        defaults = {
            opt: action.default
            for action in parser._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        }
        assert documented.keys() == defaults.keys()
        for flag, cell in documented.items():
            cell, want = cell.strip().strip("`"), defaults[flag]
            if want in (None, []):
                assert cell in ("", "required"), flag
            else:
                assert type(want)(cell) == want, flag


# ---------------------------------------------------------------------------
# sweep-r end to end


class TestSweepR:
    @pytest.fixture()
    def pairs_dir(self, tmp_path):
        d = tmp_path / "pairs"
        d.mkdir()
        (d / "case1.a.txt").write_text("alpha();\nbeta();\n", encoding="utf-8")
        (d / "case1.b.txt").write_text("alpha();\ngamma();\n", encoding="utf-8")
        (d / "case2.a.txt").write_text(
            "int x = compute();\n\n", encoding="utf-8"
        )
        (d / "case2.b.txt").write_text("int x = compute();\n", encoding="utf-8")
        return d

    def test_sweep_writes_flat_cdf_rows(self, pairs_dir, tmp_path, capsys):
        out = tmp_path / "cdf.csv"
        code = main(
            ["sweep-r", "--pairs", str(pairs_dir), "--r", "0.8", "0.9", "1.0", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "r,value,cum_fraction"
        # two pairs with distinct scores -> two CDF points per reward factor
        assert len(lines) == 1 + 3 * 2
        assert [l.split(",")[0] for l in lines[1:]] == [
            "0.8", "0.8", "0.9", "0.9", "1.0", "1.0",
        ]
        assert "swept 2 pairs" in capsys.readouterr().out

    def test_scores_match_brute_force(self, pairs_dir, tmp_path):
        out = tmp_path / "cdf.csv"
        assert main(
            ["sweep-r", "--pairs", str(pairs_dir), "--r", "0.9", "--out", str(out)]
        ) == 0
        rows = [
            l.split(",") for l in out.read_text(encoding="utf-8").splitlines()[1:]
        ]
        expected = sorted(
            [
                oracle_fragment_similarity(
                    ["alpha();", "beta();"], ["alpha();", "gamma();"], 0.9
                ),
                1.0,
            ]
        )
        assert [float(v) for _, v, _ in rows] == pytest.approx(expected)
        assert [float(f) for _, _, f in rows] == [0.5, 1.0]

    def test_missing_counterpart_exits_2(self, pairs_dir, tmp_path, capsys):
        (pairs_dir / "case1.b.txt").unlink()
        (pairs_dir / "case2.a.txt").unlink()
        for orphan in ("case1.a.txt", "case2.b.txt"):
            code = main(
                ["sweep-r", "--pairs", str(pairs_dir), "--r", "0.9", "--out", str(tmp_path / "c.csv")]
            )
            assert code == 2
            assert f"missing counterpart for {orphan}" in capsys.readouterr().err
            (pairs_dir / orphan).unlink()

    def test_non_utf8_pair_file_is_scored(self, pairs_dir, tmp_path):
        (pairs_dir / "case3.a.txt").write_bytes(b"puts(\"caf\xe9\");\n")
        (pairs_dir / "case3.b.txt").write_bytes(b"puts(\"caf\xe9\");\n")
        out = tmp_path / "cdf.csv"
        assert main(
            ["sweep-r", "--pairs", str(pairs_dir), "--r", "0.9", "--out", str(out)]
        ) == 0
        rows = [l.split(",") for l in out.read_text(encoding="utf-8").splitlines()[1:]]
        # case2 and case3 both score 1.0: two of the three pairs at the top.
        assert [(float(v), float(f)) for _, v, f in rows][1:] == [(1.0, 1.0)]
        assert float(rows[0][2]) == pytest.approx(1 / 3)

    def test_pair_file_that_is_a_directory_exits_2(self, pairs_dir, tmp_path, capsys):
        (pairs_dir / "case3.a.txt").mkdir()
        (pairs_dir / "case3.b.txt").write_text("x = 1;\n", encoding="utf-8")
        code = main(
            ["sweep-r", "--pairs", str(pairs_dir), "--r", "0.9", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: cannot read fragment file {pairs_dir / 'case3.a.txt'}: " in err
        assert "Traceback" not in err

    def test_out_is_a_directory_exits_2(self, pairs_dir, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        code = main(["sweep-r", "--pairs", str(pairs_dir), "--r", "0.9", "--out", str(out)])
        assert code == 2
        assert f"error: cannot write {out}:" in capsys.readouterr().err

    def test_no_pairs_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "pairs"
        empty.mkdir()
        code = main(
            ["sweep-r", "--pairs", str(empty), "--r", "0.9", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 2
        assert "no fragment pairs" in capsys.readouterr().err

    def test_not_a_directory_exits_2(self, tmp_path):
        code = main(
            ["sweep-r", "--pairs", str(tmp_path / "nope"), "--r", "0.9", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 2

    def test_bad_r_spec_exits_2(self, pairs_dir, tmp_path, capsys):
        # --r takes plain floats; the old START:STOP:STEP form is not one.
        with pytest.raises(SystemExit) as exc:
            main(
                ["sweep-r", "--pairs", str(pairs_dir), "--r", "0.8:1.0", "--out", str(tmp_path / "c.csv")]
            )
        assert exc.value.code == 2
        assert "--r: invalid float value: '0.8:1.0'" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["1.5", "-0.1"])
    def test_r_out_of_range_exits_2(self, pairs_dir, tmp_path, capsys, r):
        out = tmp_path / "c.csv"
        code = main(["sweep-r", "--pairs", str(pairs_dir), "--r", r, "--out", str(out)])
        assert code == 2
        assert f"r must be in [0, 1], got {r}" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# gen-fixtures end to end


class TestGenFixtures:
    def test_small_spec_builds_corpus(self, tmp_path, capsys, monkeypatch):
        # gen-fixtures always builds the built-in cases; two stand in for 30.
        cases = [CloneCase("one", 1, "CHA", 0), CloneCase("two", 2, "DEL", 1)]
        monkeypatch.setattr(fixturegen, "default_cases", lambda: cases)
        out_dir = tmp_path / "corpus"
        assert main(["gen-fixtures", "--out", str(out_dir)]) == 0

        corpus = json.loads((out_dir / "corpus.json").read_text(encoding="utf-8"))
        assert [c["name"] for c in corpus["cases"]] == ["one", "two"]
        assert (out_dir / "source" / ".git").exists()
        for case in corpus["cases"]:
            assert (out_dir / case["vuln_target"] / ".git").exists()
            assert (out_dir / case["fixed_target"] / ".git").exists()
        assert "built 2 cases" in capsys.readouterr().out

    def test_generated_case_scans_end_to_end(self, tmp_path):
        out_dir = tmp_path / "corpus"
        corpus = fixturegen.gen_fixtures([CloneCase("smoke", 1, "CHA", 0)], out_dir)
        case = corpus["cases"][0]
        # Pinned dates, authors and messages give the same ids on every run.
        assert case["patch_sha"] == "4f6a42f1e620a3c4719478c1db38d799f3eac70d"
        assert (
            run_git(out_dir / case["fixed_target"], "rev-parse", "refs/tags/v1.0.0")
            == "5e14b36897665a422297d89818c6d0ac7bd414a3"
        )

        out = tmp_path / "report.json"
        code = main(
            [
                "detect",
                "--source",
                str(out_dir / "source"),
                "--patch",
                case["patch_sha"],
                "--target",
                str(out_dir / case["vuln_target"]),
                "--target",
                str(out_dir / case["fixed_target"]),
                "--out",
                str(out),
            ]
        )
        assert code == 1

        by_target = {r["target"]: r for r in _rows(out)}
        assert by_target["tgt_smoke_vuln"]["status"] == "Vulnerable"
        fixed_row = by_target["tgt_smoke_fixed"]
        assert fixed_row["status"] == "Fixed"
        assert fixed_row["delay"]["release_tag"] == "v1.0.0"
        assert fixed_row["delay"]["delay_days"] == case["expect_delay_days"] == 183

    def test_second_run_into_same_out_exits_2(self, tmp_path, capsys, monkeypatch):
        cases = [CloneCase("one", 1, "CHA", 0)]
        monkeypatch.setattr(fixturegen, "default_cases", lambda: cases)
        out_dir = tmp_path / "corpus"
        assert main(["gen-fixtures", "--out", str(out_dir)]) == 0
        before = {
            p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()
        }
        capsys.readouterr()

        assert main(["gen-fixtures", "--out", str(out_dir)]) == 2
        assert f"output directory not empty: {out_dir}" in capsys.readouterr().err
        after = {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
        assert after == before

    def test_existing_empty_out_is_used(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            fixturegen, "default_cases", lambda: [CloneCase("one", 1, "CHA", 0)]
        )
        out_dir = tmp_path / "corpus"
        out_dir.mkdir()
        assert main(["gen-fixtures", "--out", str(out_dir)]) == 0
        assert (out_dir / "corpus.json").exists()

    def test_default_cases_follow_the_spec(self):
        spec = fixturegen.default_corpus_spec()["cases"]
        cases = fixturegen.default_cases()
        assert len(cases) == 30
        assert [(c.name, c.clone_type, c.ptype) for c in cases] == [
            (e["name"], e["clone_type"], e["ptype"]) for e in spec
        ]
        assert [c.index for c in cases] == list(range(30))

    def test_spec_flag_is_unrecognized(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-fixtures", "--spec", "x.json", "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --spec x.json" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


# ---------------------------------------------------------------------------
# top-level interface


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"forkscan {__version__}"

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_verbose_flag_accepted(self, world, tmp_path, capsys, monkeypatch):
        # main sets search.verbose; restore it for the tests that follow.
        monkeypatch.setattr(forkscan.search, "verbose", False)
        out = tmp_path / "report.json"
        code = main(
            [
                "--verbose",
                "detect",
                "--source",
                str(world.src),
                "--patch",
                world.patch_sha,
                "--target",
                str(world.clean),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()

        # No statement around this change holds a mixed-case token, so
        # neither context has a keyword to grep; only --verbose says so,
        # once per context.
        diff_file = tmp_path / "plain.diff"
        diff_file.write_text(
            "--- a/x.c\n+++ b/x.c\n@@ -1,3 +1,3 @@\n"
            " int a = 1;\n-int b = 2;\n+int b = 3;\n int c = 4;\n",
            encoding="utf-8",
        )
        argv = ["detect", "--source", str(world.src), "--patch-file", str(diff_file),
                "--target", str(world.clean), "--out", str(tmp_path / "plain.json")]
        info = "INFO forkscan.search: no keywords in context; nothing to search\n"
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert main(["--verbose", *argv]) == 0
        assert capsys.readouterr().err == info * 2

    def test_scan_does_not_import_the_corpus_writer(self):
        """Only gen-fixtures needs fixturegen; a scan process, which compiles
        every module it imports, leaves it out."""
        src = Path(forkscan.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, forkscan.cli; print('forkscan.fixturegen' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_scan_loads_neither_dataclasses_nor_logging(self, world, tmp_path):
        """Every scan is a process of its own and pays for each module it
        imports. Without `site`, which may import more, a whole scan that
        attributes a delay leaves none of these modules loaded."""
        src = Path(forkscan.__file__).resolve().parent.parent
        argv = ["detect", "--source", str(world.src), "--patch", world.patch_sha,
                "--target", str(world.fixed), "--out", str(tmp_path / "report.json")]
        script = (
            "import sys\n"
            "from forkscan.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []", proc.stdout
        assert _rows(tmp_path / "report.json")[0]["delay"]["delay_days"] is not None
