"""Deterministic fixture corpus: planted Type-1/2/3 clones in git repos.

Builds one source repository whose commits are security patches, and per
case two target repositories: one still carrying the vulnerable clone and
one where the clone was fixed and the fix released via an annotated tag.
All dates, authors, and messages are pinned so repeated generation yields
identical history.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

EPOCH_IMPORT = datetime(2019, 1, 1, tzinfo=timezone.utc)  # source import
EPOCH_FORK = datetime(2019, 2, 1, tzinfo=timezone.utc)  # target forks
EPOCH_PATCH = datetime(2019, 6, 1, tzinfo=timezone.utc)  # first source fix
EPOCH_BACKPORT = datetime(2019, 9, 1, tzinfo=timezone.utc)  # first target fix
EPOCH_RELEASE = datetime(2019, 12, 1, tzinfo=timezone.utc)  # target release tag

_IDENT = "Fixture Bot <fixtures@example.invalid>"


def _git(cwd: Path, *args: str, date: datetime | None = None) -> str:
    env = dict(os.environ)
    env.update(
        GIT_AUTHOR_NAME="Fixture Bot",
        GIT_AUTHOR_EMAIL="fixtures@example.invalid",
        GIT_COMMITTER_NAME="Fixture Bot",
        GIT_COMMITTER_EMAIL="fixtures@example.invalid",
    )
    if date is not None:
        stamp = date.isoformat()
        env["GIT_AUTHOR_DATE"] = stamp
        env["GIT_COMMITTER_DATE"] = stamp
    proc = subprocess.run(
        ["git", "-C", str(cwd), "-c", "commit.gpgsign=false", *args],
        capture_output=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"git {' '.join(args)} failed in {cwd}: "
            f"{proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    return proc.stdout.decode("utf-8", errors="replace").strip()


def _init_repo(path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    _git(path, "init", "-q", "-b", "main")


def _commit_all(path: Path, message: str, date: datetime) -> str:
    _git(path, "add", "-A")
    _git(path, "commit", "-q", "-m", message, date=date)
    return _git(path, "rev-parse", "HEAD")


@dataclass(frozen=True)
class CloneCase:
    name: str
    clone_type: int  # 1 = verbatim, 2 = renamed identifiers, 3 = reordered/edited
    ptype: str  # CHA | DEL | ADD
    index: int


def default_corpus_spec() -> dict:
    """30 cases: 10 per clone type, mixing CHA/DEL/ADD patch shapes."""
    cases = []
    for clone_type in (1, 2, 3):
        for j in range(10):
            ptype = ("CHA", "CHA", "CHA", "DEL", "ADD")[j % 5]
            cases.append(
                {
                    "name": f"t{clone_type}_{ptype.lower()}_{j:02d}",
                    "clone_type": clone_type,
                    "ptype": ptype,
                }
            )
    return {"schema": 1, "cases": cases}


def default_cases() -> list[CloneCase]:
    """The built-in corpus as cases, indexed in spec order."""
    return [
        CloneCase(c["name"], c["clone_type"], c["ptype"], i)
        for i, c in enumerate(default_corpus_spec()["cases"])
    ]


# ---------------------------------------------------------------------------
# Case content


def _pre_lines(i: int) -> list[str]:
    return [
        '#include "validation.h"',
        '#include "util/system.h"',
        "",
        f"static const int DEFAULT_SCAN_DEPTH = {60 + i};",
        "",
        f"bool VerifyLedgerState{i:02d}(CChainState& chainstate, const CParams& params)",
        "{",
        f'    LogPrintf("Verifying ledger state for shard {i}...\\n");',
        '    int nCheckDepth = gArgs.GetIntArg("-checkdepth", DEFAULT_SCAN_DEPTH);',
        "    if (nCheckDepth <= 0 || nCheckDepth > params.MaxScanDepth()) nCheckDepth = params.MaxScanDepth();",
        "    CBlockIndex* pindexState = chainstate.Tip();",
        f"    int nGoodTransactions = {10 * i};",
    ]


def _post_lines(i: int) -> list[str]:
    return [
        "    CValidationState state;",
        "    unsigned int nScannedBlocks = 0;",
        "    for (CBlockIndex* pindex = pindexState; pindex != nullptr; pindex = pindex->pprev) {",
        "        nScannedBlocks += params.CountForIndex(pindex);",
        "    }",
        f'    LogPrintf("Ledger scan finished: %u blocks in shard {i}\\n", nScannedBlocks);',
        "    return state.IsValid() && nScannedBlocks > 0;",
        "}",
    ]


def _vuln_lines(case: CloneCase) -> list[str]:
    if case.ptype == "ADD":
        return []
    if case.ptype == "DEL":
        return [
            '    LogPrintf("legacy fee estimation path taken\\n");',
            "    nFeeEstimateMode = FEE_MODE_LEGACY;",
        ]
    flavor = case.index % 3
    if flavor == 0:
        return [
            '    if (pindexState == nullptr || fHavePruned) return error("scan aborted: missing index");',
        ]
    if flavor == 1:
        return [
            "    if (!CheckDiskSpace(nCheckDepth * MIN_BLOCK_SPACE)) {",
            '        return error("insufficient disk space for scan");',
            "    }",
        ]
    return [
        "    uint256 hashCheckpoint = params.Checkpoint(nCheckDepth);",
        "    if (hashCheckpoint.IsNull()) return false;",
    ]


def _fixed_lines(case: CloneCase) -> list[str]:
    if case.ptype == "DEL":
        return []
    if case.ptype == "ADD":
        return [
            '    if (nCheckDepth > params.HardLimit()) return error("depth exceeds hard limit");',
        ]
    flavor = case.index % 3
    if flavor == 0:
        return [
            '    if (pindexState == nullptr || fHavePruned) return AbortNode(state, "scan aborted: block index missing, please reindex");',
        ]
    if flavor == 1:
        return [
            "    if (!CheckDiskSpace(nCheckDepth * MIN_BLOCK_SPACE, true)) {",
            '        return AbortNode(state, "insufficient disk space, cannot continue");',
            "    }",
        ]
    return [
        "    uint256 hashCheckpoint = params.StrongCheckpoint(nCheckDepth, true);",
        '    if (hashCheckpoint.IsNull()) return AbortNode(state, "checkpoint lookup failed");',
    ]


def case_file(case: CloneCase) -> str:
    return f"src/case_{case.name}.cpp"


def case_content(case: CloneCase, fixed: bool) -> str:
    middle = _fixed_lines(case) if fixed else _vuln_lines(case)
    lines = _pre_lines(case.index) + middle + _post_lines(case.index)
    return "\n".join(lines) + "\n"


_RENAME_MAP = {
    "pindexState": "pindexCursor",
    "nGoodTransactions": "nTotalGoodTx",
    "nScannedBlocks": "nBlocksSeen",
}


def _apply_type2(text: str) -> str:
    for old, new in _RENAME_MAP.items():
        text = re.sub(rf"\b{old}\b", new, text)
    return text


def _apply_type3(text: str) -> str:
    """Swap two adjacent statements, insert one, delete one."""
    lines = text.split("\n")

    def find(substr: str) -> int:
        return next(i for i, line in enumerate(lines) if substr in line)

    a = find("params.MaxScanDepth()) nCheckDepth")
    b = find("chainstate.Tip()")
    lines[a], lines[b] = lines[b], lines[a]
    ins = find("unsigned int nScannedBlocks = 0;")
    lines.insert(ins + 1, "    unsigned int nOrphansSeen = 0;")
    rm = find("params.CountForIndex(pindex)")
    del lines[rm]
    return "\n".join(lines)


def clone_transform(case: CloneCase, text: str) -> str:
    if case.clone_type == 1:
        return text
    if case.clone_type == 2:
        return _apply_type2(text)
    return _apply_type3(text)


# ---------------------------------------------------------------------------
# Corpus assembly


def gen_fixtures(cases: list[CloneCase], out_dir: str | Path) -> dict:
    """Build the corpus of cases under out_dir; returns the corpus index (also
    on disk). A case's index sets its dates and, for CHA cases, its flavor.

    Layout: out_dir/source (patch source repo), out_dir/targets/tgt_<case>_vuln
    and ..._fixed, plus corpus.json describing every case.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    source = out / "source"
    _init_repo(source)
    for case in cases:
        path = source / case_file(case)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(case_content(case, fixed=False), encoding="utf-8")
    _commit_all(source, "import ledger verification code", EPOCH_IMPORT)

    index: list[dict] = []
    for case in cases:
        (source / case_file(case)).write_text(
            case_content(case, fixed=True), encoding="utf-8"
        )
        patch_date = EPOCH_PATCH + timedelta(days=case.index)
        patch_sha = _commit_all(
            source, f"fix: harden ledger verification ({case.name})", patch_date
        )

        vuln_repo = out / "targets" / f"tgt_{case.name}_vuln"
        _init_repo(vuln_repo)
        tgt_path = vuln_repo / case_file(case)
        tgt_path.parent.mkdir(parents=True, exist_ok=True)
        tgt_path.write_text(
            clone_transform(case, case_content(case, fixed=False)), encoding="utf-8"
        )
        _commit_all(vuln_repo, "fork ledger verification", EPOCH_FORK)

        fixed_repo = out / "targets" / f"tgt_{case.name}_fixed"
        _init_repo(fixed_repo)
        tgt_path = fixed_repo / case_file(case)
        tgt_path.parent.mkdir(parents=True, exist_ok=True)
        tgt_path.write_text(
            clone_transform(case, case_content(case, fixed=False)), encoding="utf-8"
        )
        _commit_all(fixed_repo, "fork ledger verification", EPOCH_FORK)
        tgt_path.write_text(
            clone_transform(case, case_content(case, fixed=True)), encoding="utf-8"
        )
        backport_date = EPOCH_BACKPORT + timedelta(days=case.index)
        _commit_all(fixed_repo, "backport upstream hardening fix", backport_date)
        _git(
            fixed_repo, "tag", "-a", "v1.0.0", "-m", "release v1.0.0",
            date=EPOCH_RELEASE,
        )

        index.append(
            {
                "name": case.name,
                "clone_type": case.clone_type,
                "ptype": case.ptype,
                "file": case_file(case),
                "patch_sha": patch_sha,
                "vuln_target": f"targets/tgt_{case.name}_vuln",
                "fixed_target": f"targets/tgt_{case.name}_fixed",
                "expect_delay_days": (
                    EPOCH_RELEASE - (EPOCH_PATCH + timedelta(days=case.index))
                ).days,
            }
        )

    corpus = {"schema": 1, "source": "source", "cases": index}
    (out / "corpus.json").write_text(
        json.dumps(corpus, indent=2) + "\n", encoding="utf-8"
    )
    return corpus


# ---------------------------------------------------------------------------
# Large synthetic target for throughput checks


def build_throughput_fixture(
    out_dir: str | Path, files: int = 200, lines_per_file: int = 500
) -> dict:
    """One source repo with a single-hunk patch and a ~(files * lines_per_file)
    LOC target containing a verbatim vulnerable clone in one file."""
    out = Path(out_dir)
    case = CloneCase(name="bulk", clone_type=1, ptype="CHA", index=0)

    source = out / "bulk_source"
    _init_repo(source)
    src_file = source / case_file(case)
    src_file.parent.mkdir(parents=True, exist_ok=True)
    src_file.write_text(case_content(case, fixed=False), encoding="utf-8")
    _commit_all(source, "import ledger verification code", EPOCH_IMPORT)
    src_file.write_text(case_content(case, fixed=True), encoding="utf-8")
    patch_sha = _commit_all(source, "fix: harden ledger verification", EPOCH_PATCH)

    target = out / "bulk_target"
    _init_repo(target)
    planted_at = files // 2
    for k in range(files):
        body: list[str] = [f'#include "module_{k:03d}.h"', ""]
        j = 0
        while len(body) < lines_per_file:
            body.append(f"static int ComputeChunk_{k:03d}_{j}(int nInput)")
            body.append("{")
            body.append(f"    int nLocal = nInput * {j % 97} + {k};")
            body.append(f"    nLocal ^= RotateBits(nLocal, {j % 31});")
            body.append("    return nLocal;")
            body.append("}")
            j += 1
        if k == planted_at:
            body.extend(case_content(case, fixed=False).split("\n"))
        path = target / f"src/module_{k:03d}.cpp"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(body) + "\n", encoding="utf-8")
    _commit_all(target, "bulk import", EPOCH_FORK)

    return {
        "source": str(source),
        "target": str(target),
        "patch_sha": patch_sha,
        "planted_file": f"src/module_{planted_at:03d}.cpp",
    }
