"""Seeded scan workloads and the truth of every pair planted in them.

Each workload is one source repository holding the 30 patches of
`fixturegen.default_corpus_spec()` plus one or more target repositories.
Case content (templates, clone transforms, pinned epochs) comes from
`forkscan.fixturegen`; the histories are written here through a single
`git fast-import` per repository, so every object id depends only on the
seed. The truth of a planted pair is computed from the dates and commits
written here and never read back from forkscan's output.

Every seeded choice keeps the amount of work fixed: filler lines are drawn
from templates whose fields have a fixed width, hard negatives have a fixed
count, and only which case is planted where changes with the seed.
"""

from __future__ import annotations

import random
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

from forkscan import fixturegen
from forkscan.fixturegen import CloneCase

# fork-sparse: a large tree in which grep finds almost nothing.
SPARSE_FILES = 100
SPARSE_LINES = 1000
# fork-dense: hard negatives that share the context keywords; the count of
# noise functions is the size knob (each holds 4 key statements for every
# patch: 2 LogPrintf, 1 CBlockIndex and 1 params.CountForIndex line).
DENSE_FILES = 50
DENSE_LINES = 400
DENSE_NOISE = 2
DENSE_TAGS = 40

_NAME = "Fixture Bot"
_EMAIL = "fixtures@example.invalid"

# Filler vocabulary: equal-length words, none of which forms a context
# keyword of the corpus patches (LogPrintf, CBlockIndex, chainstate.Tip, ...).
_VERBS = ("Blend", "Churn", "Shift", "Twist", "Merge", "Split", "Stack", "Crush")
_NOUNS = ("Words", "Bytes", "Lanes", "Cells", "Slots", "Rings", "Tiles", "Nodes")
_DIRS = ("alpha", "bravo", "delta", "gamma", "kappa", "omega", "sigma", "theta")


class Repo:
    """History of one repository, written by a single `git fast-import`."""

    def __init__(self) -> None:
        self._stream: list[bytes] = []
        self._marks = 0
        self.shas: dict[int, str] = {}

    def commit(self, when: datetime, message: str, files: dict[str, str]) -> int:
        """Add a commit on main that writes `files`; returns its mark."""
        self._marks += 1
        mark = self._marks
        parts = [
            b"commit refs/heads/main\n",
            b"mark :%d\n" % mark,
            _ident(b"author", when),
            _ident(b"committer", when),
            _data(message.encode()),
        ]
        if mark > 1:
            parts.append(b"from :%d\n" % (mark - 1))
        for path in sorted(files):
            parts.append(b"M 100644 inline %s\n" % path.encode())
            parts.append(_data(files[path].encode()))
        self._stream.append(b"".join(parts) + b"\n")
        return mark

    def tag(self, name: str, mark: int, when: datetime) -> None:
        self._stream.append(
            b"tag %s\nfrom :%d\n" % (name.encode(), mark)
            + _ident(b"tagger", when)
            + _data(f"release {name}".encode())
        )

    def write(self, path: Path) -> None:
        path.mkdir(parents=True)
        _git(path, "init", "-q", "-b", "main")
        marks = path.resolve() / ".git" / "fast-import.marks"
        _git(
            path, "fast-import", "--quiet", f"--export-marks={marks}",
            stdin=b"".join(self._stream),
        )
        for line in marks.read_text().splitlines():
            mark, sha = line.split()
            self.shas[int(mark[1:])] = sha
        marks.unlink()


def _ident(role: bytes, when: datetime) -> bytes:
    stamp = int(when.timestamp())
    return b"%s %s <%s> %d +0000\n" % (role, _NAME.encode(), _EMAIL.encode(), stamp)


def _data(payload: bytes) -> bytes:
    return b"data %d\n%s\n" % (len(payload), payload)


def _git(cwd: Path, *args: str, stdin: bytes | None = None) -> str:
    proc = subprocess.run(
        ["git", "-C", str(cwd), *args], input=stdin, capture_output=True
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"git {args[0]} failed in {cwd}: {proc.stderr.decode(errors='replace')}"
        )
    return proc.stdout.decode().strip()


def tree_id(repo: Path) -> str:
    return _git(repo, "rev-parse", "HEAD^{tree}")


# ---------------------------------------------------------------------------
# Truth


@dataclass(frozen=True)
class Planted:
    """What a correct scan reports for one planted (patch, target) pair.

    `delay` is the report's delay record, or None for a Vulnerable pair.
    `deletion_delay` is set for an applied deletion (a Fixed DEL case):
    forkscan blames the context around the removed lines, so it names the
    commit that last wrote that context instead of the backport. The
    record that behaviour yields is computed here from the same history;
    the harness counts it as a planted miss of a known kind.
    """

    patch: str
    target: str
    status: str
    path: str
    delay: dict | None = None
    deletion_delay: dict | None = None


@dataclass
class Built:
    """A workload on disk, ready to scan from `root`."""

    root: Path
    source: str
    patches: list[str]
    targets: list[str]
    planted: list[Planted]
    trees: dict[str, str] = field(default_factory=dict)

    @property
    def pairs(self) -> int:
        return len(self.patches) * len(self.targets)


# ---------------------------------------------------------------------------
# Content


def _cases() -> list[CloneCase]:
    return [
        CloneCase(c["name"], c["clone_type"], c["ptype"], i)
        for i, c in enumerate(fixturegen.default_corpus_spec()["cases"])
    ]


def _patch_date(case: CloneCase) -> datetime:
    return fixturegen.EPOCH_PATCH + timedelta(days=case.index)


def _clone(case: CloneCase, fixed: bool) -> str:
    return fixturegen.clone_transform(case, fixturegen.case_content(case, fixed))


def _build_source(out: Path, cases: list[CloneCase]) -> list[str]:
    """The upstream repository: one import, then one fix commit per case."""
    repo = Repo()
    repo.commit(
        fixturegen.EPOCH_IMPORT, "import ledger verification code",
        {fixturegen.case_file(c): fixturegen.case_content(c, False) for c in cases},
    )
    marks = [
        repo.commit(
            _patch_date(c), f"fix: harden ledger verification ({c.name})",
            {fixturegen.case_file(c): fixturegen.case_content(c, True)},
        )
        for c in cases
    ]
    repo.write(out / "source")
    return [repo.shas[m] for m in marks]


def _filler_function(rng: random.Random, file_no: int, fn_no: int) -> list[str]:
    name = f"{rng.choice(_VERBS)}{rng.choice(_NOUNS)}_{file_no:03d}_{fn_no:03d}"
    mul, rot = rng.randrange(100, 1000), rng.randrange(10, 100)
    return [
        f"static int {name}(int nInput, int nSalt)",
        "{",
        f"    int nLocal = nInput * {mul} + nSalt;",
        f"    nLocal ^= RotateWord(nLocal, {rot});",
        f"    if (nLocal > {mul}) nLocal -= nSalt;",
        "    return nLocal;",
        "}",
        "",
    ]


def _noise_function(rng: random.Random, file_no: int, fn_no: int) -> list[str]:
    """Not a clone, but it reuses the context keywords of every patch.

    Every statement is over 120 characters long. The two LogPrintf lines
    are key statements for each patch's UP context and the for and
    CountForIndex lines for its DOWN context; all four expand, but no
    boundary survives: the shortest context statements (the UP context's
    `int nGoodTransactions = ...;` and the DOWN context's
    `CValidationState state;`) cannot reach the 0.25 gate against lines
    over four times their length.
    """
    peer, depth, budget = (rng.randrange(100, 1000) for _ in range(3))
    tag = f"{file_no:03d}_{fn_no:03d}"
    return [
        f"static void AuditPeerLedger_{tag}(const CParams& params, CBlockIndex* pindexWalk, "
        "unsigned int nPeerWeight, bool fVerboseAudit)",
        "{",
        f'    LogPrintf("Verifying peer {peer} ledger state for shard: %u headers, %u blocks '
        'and %u orphans at depth %u\\n", nHeaders, nBlocks, nOrphans, nDepth);',
        f'    LogPrintf("Verifying peer {peer} relay budget for shard: %u bytes in, %u bytes out '
        'and %u stalls after %u\\n", nBytesIn, nBytesOut, nStalls, nDepth);',
        f"    unsigned int nAuditBudget = std::min<unsigned int>(nPeerWeight * AUDIT_FACTOR_{budget}, "
        "MAX_AUDIT_BUDGET_PER_PEER) + nHeaders + nBlocks;",
        f"    unsigned int nAuditDepth = std::max<unsigned int>(nDepth + AUDIT_MARGIN_{depth}, "
        "MIN_AUDIT_DEPTH_PER_PEER) - nOrphans - nStalls;",
        f"    const bool fAuditDeep = fVerboseAudit && nAuditBudget > AUDIT_DEEP_THRESHOLD_{budget} "
        "&& nAuditDepth < MAX_AUDIT_DEPTH_PER_PEER;",
        f"    unsigned int nAudited = fAuditDeep ? nAuditBudget / AUDIT_DEEP_DIVISOR_{depth} "
        ": nAuditBudget / AUDIT_SHALLOW_DIVISOR_PER_PEER;",
        "    for (CBlockIndex* pindexAudit = pindexWalk; pindexAudit != nullptr && nAudited < "
        "nAuditDepth; pindexAudit = pindexAudit->pprev) {",
        "        nAuditedBlocks += params.CountForIndex(pindexAudit) * nPeerWeight + "
        "params.CountForIndex(pindexAudit->pprev) + nAudited++;",
        "    }",
        "}",
        "",
    ]


def _filler_file(
    rng: random.Random, file_no: int, lines: int,
    inserts: dict[int, list[str]] | None = None,
) -> str:
    """About `lines` lines of filler; `inserts` maps a function slot to a
    block placed before that slot's filler function."""
    inserts = inserts or {}
    body = [f'#include "module_{file_no:03d}.h"', ""]
    slot = 0
    while len(body) < lines or slot in inserts:
        body.extend(inserts.get(slot, []))
        body.extend(_filler_function(rng, file_no, slot))
        slot += 1
    return "\n".join(body) + "\n"


def _file_path(rng: random.Random, file_no: int) -> str:
    return f"src/{rng.choice(_DIRS)}/module_{file_no:03d}.cpp"


# ---------------------------------------------------------------------------
# Workloads
#
# A case's clone type and patch type set how much work every patch does
# against its clone (identifier renames, for one, remove grep hits), so
# each planted slot has a fixed (clone type, patch type) and the seed draws
# one of the corpus cases of that shape. Together the slots cover every
# clone type and patch type.


def _draw(rng: random.Random, cases: list[CloneCase], clone_type: int, ptype: str) -> CloneCase:
    return rng.choice([c for c in cases if (c.clone_type, c.ptype) == (clone_type, ptype)])


def _fork_with_fix(
    case: CloneCase, path: str, patched_sha: str, target: str, extra: dict[str, str],
    tags: int, out: Path,
) -> Planted:
    """A fork importing `case`'s vulnerable clone at `path` (plus `extra`
    files), then the backport of its fix, then `tags` weekly release tags
    starting at EPOCH_RELEASE."""
    repo = Repo()
    imported = repo.commit(
        fixturegen.EPOCH_FORK, "fork import", {**extra, path: _clone(case, False)}
    )
    backport = repo.commit(
        fixturegen.EPOCH_BACKPORT + timedelta(days=case.index),
        "backport upstream hardening fix", {path: _clone(case, True)},
    )
    mark = backport
    for t in range(tags):
        when = fixturegen.EPOCH_RELEASE + timedelta(days=7 * t)
        if t:
            mark = repo.commit(
                when, f"release 1.{t}.0", {"src/version.h": f"#define FORK_RELEASE {t}\n"}
            )
        repo.tag(f"v1.{t}.0", mark, when)
    repo.write(out / "targets" / target)
    patched = _patch_date(case)
    release = fixturegen.EPOCH_RELEASE

    def record(true_fix: int) -> dict:
        return {
            "true_fix": repo.shas[true_fix],
            "release_tag": "v1.0.0",
            "release_date": release.isoformat(),
            "delay_days": (release - patched).days,
        }

    return Planted(
        patched_sha, target, "Fixed", path, record(backport),
        record(imported) if case.ptype == "DEL" else None,
    )


def _fork(case: CloneCase, path: str, target: str, out: Path) -> None:
    repo = Repo()
    repo.commit(fixturegen.EPOCH_FORK, "fork import", {path: _clone(case, False)})
    repo.write(out / "targets" / target)


def build_corpus_cross(out: Path, seed: int) -> Built:
    """All 30 patches against a vulnerable fork of one case (type-1 CHA)
    and a fixed fork of another (type-3 DEL), in fixturegen's layout."""
    rng = random.Random(f"corpus-cross:{seed}")
    cases = _cases()
    patches = _build_source(out, cases)
    vuln = _draw(rng, cases, 1, "CHA")
    fixed = _draw(rng, cases, 3, "DEL")
    vuln_path = f"src/{rng.choice(_DIRS)}/case_{vuln.name}.cpp"
    fixed_path = f"src/{rng.choice(_DIRS)}/case_{fixed.name}.cpp"
    vuln_name, fixed_name = f"tgt_{vuln.name}_vuln", f"tgt_{fixed.name}_fixed"
    _fork(vuln, vuln_path, vuln_name, out)
    fixed_truth = _fork_with_fix(
        fixed, fixed_path, patches[fixed.index], fixed_name, {}, 1, out
    )
    return Built(
        out, "source", patches, [f"targets/{vuln_name}", f"targets/{fixed_name}"],
        [Planted(patches[vuln.index], vuln_name, "Vulnerable", vuln_path), fixed_truth],
    )


def build_fork_sparse(out: Path, seed: int) -> Built:
    """All 30 patches against one large fork of filler that holds no
    context keyword, with one vulnerable type-2 CHA clone in a filler file."""
    rng = random.Random(f"fork-sparse:{seed}")
    cases = _cases()
    patches = _build_source(out, cases)
    case = _draw(rng, cases, 2, "CHA")
    host, slot = rng.randrange(SPARSE_FILES), rng.randrange(SPARSE_LINES // 16)
    files = {}
    for k in range(SPARSE_FILES):
        path = _file_path(rng, k)
        inserts = None
        if k == host:
            planted_path = path
            inserts = {slot: _clone(case, False).split("\n")}
        files[path] = _filler_file(rng, k, SPARSE_LINES, inserts)
    repo = Repo()
    repo.commit(fixturegen.EPOCH_FORK, "fork import", files)
    repo.write(out / "targets" / "fork_sparse")
    return Built(
        out, "source", patches, ["targets/fork_sparse"],
        [Planted(patches[case.index], "fork_sparse", "Vulnerable", planted_path)],
    )


def build_fork_dense(out: Path, seed: int) -> Built:
    """All 30 patches against a fork whose filler holds DENSE_NOISE
    keyword-sharing hard negatives, a vulnerable type-3 CHA clone in one
    file and a type-2 ADD clone in its own file that a backport fixes
    before DENSE_TAGS weekly release tags."""
    rng = random.Random(f"fork-dense:{seed}")
    cases = _cases()
    patches = _build_source(out, cases)
    vuln = _draw(rng, cases, 3, "CHA")
    fixed = _draw(rng, cases, 2, "ADD")
    slots = DENSE_LINES // 16
    inserts: dict[int, dict[int, list[str]]] = {}  # file -> slot -> lines
    for n in range(DENSE_NOISE):
        k, slot = rng.randrange(DENSE_FILES), rng.randrange(slots)
        inserts.setdefault(k, {}).setdefault(slot, []).extend(_noise_function(rng, k, n))
    host, slot = rng.randrange(DENSE_FILES), rng.randrange(slots)
    inserts.setdefault(host, {}).setdefault(slot, []).extend(_clone(vuln, False).split("\n"))
    paths = [_file_path(rng, k) for k in range(DENSE_FILES)]
    files = {
        paths[k]: _filler_file(rng, k, DENSE_LINES, inserts.get(k))
        for k in range(DENSE_FILES)
    }
    vuln_path = paths[host]
    fixed_path = f"src/{rng.choice(_DIRS)}/ledger_{fixed.name}.cpp"
    fixed_truth = _fork_with_fix(
        fixed, fixed_path, patches[fixed.index], "fork_dense", files, DENSE_TAGS, out
    )
    return Built(
        out, "source", patches, ["targets/fork_dense"],
        [Planted(patches[vuln.index], "fork_dense", "Vulnerable", vuln_path), fixed_truth],
    )


_BUILDERS = {
    "corpus-cross": build_corpus_cross,
    "fork-sparse": build_fork_sparse,
    "fork-dense": build_fork_dense,
}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, out: Path) -> Built:
    """Build workload `name` from `seed` under the new directory `out`."""
    built = _BUILDERS[name](out, seed)
    for repo in [built.source, *built.targets]:
        built.trees[repo] = tree_id(out / repo)
    return built

