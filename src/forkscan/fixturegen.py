"""Deterministic fixture corpus: planted Type-1/2/3 clones in git repos.

Builds one source repository whose commits are security patches, and per
case two target repositories: one still carrying the vulnerable clone and
one where the clone was fixed and the fix released via an annotated tag.
`Repo` writes each history, given as data, with one `git fast-import`: the
repositories hold history only, no checked-out files. Dates, authors and
messages are pinned, so repeated generation yields identical object ids.
"""

from __future__ import annotations

import json
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


# The lines a patch changes, as (vulnerable, fixed): a DEL patch removes two
# lines, an ADD patch inserts one, and CHA cases cycle through three flavors.
_CHANGED: dict[str | int, tuple[list[str], list[str]]] = {
    "DEL": (
        [
            '    LogPrintf("legacy fee estimation path taken\\n");',
            "    nFeeEstimateMode = FEE_MODE_LEGACY;",
        ],
        [],
    ),
    "ADD": (
        [],
        ['    if (nCheckDepth > params.HardLimit()) return error("depth exceeds hard limit");'],
    ),
    0: (
        ['    if (pindexState == nullptr || fHavePruned) return error("scan aborted: missing index");'],
        ['    if (pindexState == nullptr || fHavePruned) return AbortNode(state, "scan aborted: block index missing, please reindex");'],
    ),
    1: (
        [
            "    if (!CheckDiskSpace(nCheckDepth * MIN_BLOCK_SPACE)) {",
            '        return error("insufficient disk space for scan");',
            "    }",
        ],
        [
            "    if (!CheckDiskSpace(nCheckDepth * MIN_BLOCK_SPACE, true)) {",
            '        return AbortNode(state, "insufficient disk space, cannot continue");',
            "    }",
        ],
    ),
    2: (
        [
            "    uint256 hashCheckpoint = params.Checkpoint(nCheckDepth);",
            "    if (hashCheckpoint.IsNull()) return false;",
        ],
        [
            "    uint256 hashCheckpoint = params.StrongCheckpoint(nCheckDepth, true);",
            '    if (hashCheckpoint.IsNull()) return AbortNode(state, "checkpoint lookup failed");',
        ],
    ),
}


def case_file(case: CloneCase) -> str:
    return f"src/case_{case.name}.cpp"


def case_content(case: CloneCase, fixed: bool) -> str:
    changed = _CHANGED[case.index % 3 if case.ptype == "CHA" else case.ptype][fixed]
    lines = _pre_lines(case.index) + changed + _post_lines(case.index)
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


class Repo:
    """History of one repository on branch main, stored by `write` with one
    `git fast-import` object for object as `git commit -m`/`git tag -a -m`."""

    # Author, committer and tagger of every object, at a time in epoch seconds.
    _BOT = b"Fixture Bot <fixtures@example.invalid> %d +0000\n"

    def __init__(self) -> None:
        self._stream: list[bytes] = []
        self._marks = 0
        self.shas: dict[int, str] = {}

    def commit(self, when: datetime, message: str, files: dict[str, str]) -> int:
        """Add a commit on main that writes `files`; returns its mark."""
        self._marks += 1
        who = self._BOT % int(when.timestamp())
        self._stream.append(
            b"commit refs/heads/main\nmark :%d\nauthor %scommitter %s%s"
            % (self._marks, who, who, _data(f"{message}\n"))
        )
        self._stream += [
            b"M 100644 inline %s\n%s" % (p.encode(), _data(files[p])) for p in sorted(files)
        ]
        return self._marks

    def tag(self, name: str, mark: int, when: datetime) -> None:
        """Add the annotated tag `name` on commit `mark`."""
        who = self._BOT % int(when.timestamp())
        self._stream.append(
            b"tag %s\nfrom :%d\ntagger %s%s"
            % (name.encode(), mark, who, _data(f"release {name}\n"))
        )

    def write(self, path: Path) -> None:
        """Create the repository in the new directory `path`; fills `shas`."""
        path.mkdir(parents=True)
        marks = (path / ".git" / "fast-import.marks").resolve()
        init = ["init", "-q", "-b", "main"]
        load = ["fast-import", "--quiet", f"--export-marks={marks}"]
        for args, stdin in ((init, None), (load, b"".join(self._stream))):
            proc = subprocess.run(
                ["git", "-C", str(path), *args], input=stdin, capture_output=True
            )
            if proc.returncode != 0:
                err = proc.stderr.decode("utf-8", "replace").strip()
                raise RuntimeError(f"git {args[0]} failed in {path}: {err}")
        pairs = map(str.split, marks.read_text().splitlines())
        self.shas = {int(mark[1:]): sha for mark, sha in pairs}
        marks.unlink()


def _data(text: str) -> bytes:
    payload = text.encode()
    return b"data %d\n%s\n" % (len(payload), payload)


def gen_fixtures(cases: list[CloneCase], out_dir: str | Path) -> dict:
    """Build the corpus of cases under out_dir; returns the corpus index (also
    on disk). A case's index sets its dates and, for CHA cases, its flavor.

    Layout: out_dir/source (patch source repo), out_dir/targets/tgt_<case>_vuln
    and ..._fixed, plus corpus.json describing every case; none may exist yet.
    """
    out = Path(out_dir)
    source = Repo()
    source.commit(
        EPOCH_IMPORT, "import ledger verification code",
        {case_file(c): case_content(c, fixed=False) for c in cases},
    )
    patches = [
        source.commit(
            EPOCH_PATCH + timedelta(days=c.index),
            f"fix: harden ledger verification ({c.name})",
            {case_file(c): case_content(c, fixed=True)},
        )
        for c in cases
    ]
    source.write(out / "source")

    index: list[dict] = []
    for case, patch in zip(cases, patches):
        path, target = case_file(case), f"targets/tgt_{case.name}"
        # The fixed fork is the vulnerable one plus a backport and a release.
        fork = Repo()
        fork.commit(
            EPOCH_FORK, "fork ledger verification",
            {path: clone_transform(case, case_content(case, fixed=False))},
        )
        fork.write(out / f"{target}_vuln")
        backport = fork.commit(
            EPOCH_BACKPORT + timedelta(days=case.index),
            "backport upstream hardening fix",
            {path: clone_transform(case, case_content(case, fixed=True))},
        )
        fork.tag("v1.0.0", backport, EPOCH_RELEASE)
        fork.write(out / f"{target}_fixed")

        index.append(
            {
                "name": case.name,
                "clone_type": case.clone_type,
                "ptype": case.ptype,
                "file": path,
                "patch_sha": source.shas[patch],
                "vuln_target": f"{target}_vuln",
                "fixed_target": f"{target}_fixed",
                "expect_delay_days": (EPOCH_RELEASE - EPOCH_PATCH).days - case.index,
            }
        )

    corpus = {"schema": 1, "source": "source", "cases": index}
    (out / "corpus.json").write_text(
        json.dumps(corpus, indent=2) + "\n", encoding="utf-8"
    )
    return corpus


# ---------------------------------------------------------------------------
# Large synthetic target for throughput checks

# The bulk target: BULK_FILES files of BULK_LINES lines, 100 kLOC in all.
BULK_FILES = 200
BULK_LINES = 500


def build_throughput_fixture(out_dir: str | Path) -> dict:
    """One source repo with a single-hunk patch and a BULK_FILES * BULK_LINES
    LOC target containing a verbatim vulnerable clone in one file."""
    out = Path(out_dir)
    case = CloneCase(name="bulk", clone_type=1, ptype="CHA", index=0)
    path = case_file(case)
    source = Repo()
    for when, message, fixed in (
        (EPOCH_IMPORT, "import ledger verification code", False),
        (EPOCH_PATCH, "fix: harden ledger verification", True),
    ):
        patch = source.commit(when, message, {path: case_content(case, fixed)})
    source.write(out / "bulk_source")

    planted_at = BULK_FILES // 2
    files: dict[str, str] = {}
    for k in range(BULK_FILES):
        body = [f'#include "module_{k:03d}.h"', ""]
        for j in range((BULK_LINES - len(body)) // 6):  # six-line functions
            body += [
                f"static int ComputeChunk_{k:03d}_{j}(int nInput)",
                "{",
                f"    int nLocal = nInput * {j % 97} + {k};",
                f"    nLocal ^= RotateBits(nLocal, {j % 31});",
                "    return nLocal;",
                "}",
            ]
        if k == planted_at:
            body.extend(case_content(case, fixed=False).split("\n"))
        files[f"src/module_{k:03d}.cpp"] = "\n".join(body) + "\n"
    target = Repo()
    target.commit(EPOCH_FORK, "bulk import", files)
    target.write(out / "bulk_target")

    return {
        "source": str(out / "bulk_source"),
        "target": str(out / "bulk_target"),
        "patch_sha": source.shas[patch],
        "planted_file": f"src/module_{planted_at:03d}.cpp",
    }
