"""Shared fixtures: deterministic git repo builders and independent oracles.

The oracles here are deliberately naive re-implementations (full-matrix DP,
exhaustive scans) used to cross-check the production code; they must never
import logic from the package beyond plain data types.
"""

from __future__ import annotations

import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import pytest

UTC = timezone.utc


# ---------------------------------------------------------------------------
# git plumbing with pinned identity and dates


def run_git(cwd: Path, *args: str, date: datetime | None = None) -> str:
    env = dict(os.environ)
    env.update(
        GIT_AUTHOR_NAME="Test Author",
        GIT_AUTHOR_EMAIL="author@example.invalid",
        GIT_COMMITTER_NAME="Test Committer",
        GIT_COMMITTER_EMAIL="committer@example.invalid",
    )
    if date is not None:
        env["GIT_AUTHOR_DATE"] = date.isoformat()
        env["GIT_COMMITTER_DATE"] = date.isoformat()
    proc = subprocess.run(
        ["git", "-C", str(cwd), "-c", "commit.gpgsign=false", *args],
        capture_output=True,
        env=env,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"git {' '.join(args)}: {proc.stderr.decode('utf-8', 'replace')}"
        )
    return proc.stdout.decode("utf-8", errors="replace").strip()


def init_repo(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    run_git(path, "init", "-q", "-b", "main")
    return path


def write_files(repo: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        p = repo / name
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")


def commit_all(repo: Path, message: str, date: datetime) -> str:
    run_git(repo, "add", "-A")
    run_git(repo, "commit", "-q", "-m", message, date=date)
    return run_git(repo, "rev-parse", "HEAD")


def tag_annotated(repo: Path, name: str, date: datetime) -> None:
    run_git(repo, "tag", "-a", name, "-m", f"release {name}", date=date)


def record_git(handle) -> list[str]:
    """The subcommand of every later git call a repository handle makes."""
    calls, real = [], handle._run

    def run(args, input=None):
        calls.append(args[0])
        return real(args, input)

    handle._run = run
    return calls


@pytest.fixture
def make_repo(tmp_path):
    """Factory: build a repo from {path: content} with one pinned commit."""

    counter = [0]

    def _make(files: dict[str, str], date: datetime | None = None) -> Path:
        counter[0] += 1
        repo = init_repo(tmp_path / f"repo{counter[0]}")
        write_files(repo, files)
        commit_all(repo, "initial", date or datetime(2020, 1, 1, tzinfo=UTC))
        return repo

    return _make


@pytest.fixture
def kernel_calls(monkeypatch):
    """The patterns of every simcore.levenshtein_many call, made against an
    empty strsim memo."""
    from forkscan import simcore

    monkeypatch.setattr(simcore, "_STRSIM_MEMO", {})
    calls: list[list[str]] = []
    kernel = simcore.levenshtein_many

    def counting(a, bs):
        calls.append(list(bs))
        return kernel(a, bs)

    monkeypatch.setattr(simcore, "levenshtein_many", counting)
    return calls


# ---------------------------------------------------------------------------
# independent oracles


def oracle_levenshtein(a: str, b: str) -> int:
    """Textbook full-matrix edit distance."""
    m, n = len(a), len(b)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dist[i][0] = i
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
    return dist[m][n]


def oracle_strsim(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - oracle_levenshtein(a, b) / max(len(a), len(b))


def oracle_fragment_similarity(source: list[str], target: list[str], r: float) -> float:
    """Positionally rewarded mean of per-line best matches (brute force).

    Ties resolved exactly as the contract demands: highest similarity, then
    smallest index offset, then smallest target index.
    """
    assert source and target
    total = 0.0
    for i, s in enumerate(source):
        scored = [
            (oracle_strsim(s, t), abs(i - j), j) for j, t in enumerate(target)
        ]
        scored.sort(key=lambda x: (-x[0], x[1], x[2]))
        sim, offset, _ = scored[0]
        total += sim * r**offset
    return total / len(source)


def oracle_grep(repo: Path, keyword: str, rev: str = "HEAD") -> list[tuple[str, int]]:
    """Exhaustive substring scan over every text file at rev."""
    listing = run_git(repo, "ls-tree", "-r", "--name-only", rev)
    hits: list[tuple[str, int]] = []
    for path in listing.splitlines():
        blob = subprocess.run(
            ["git", "-C", str(repo), "show", f"{rev}:{path}"], capture_output=True
        )
        if blob.returncode != 0 or b"\x00" in blob.stdout:
            continue
        for no, line in enumerate(
            blob.stdout.decode("utf-8", errors="replace").split("\n"), 1
        ):
            if keyword in line:
                hits.append((path, no))
    # The final split("\n") yields a phantom empty line after a trailing
    # newline; keyword is non-empty so it can never match that line.
    return sorted(hits)


# ---------------------------------------------------------------------------
# the blame/release history fixture (Qtum-like constructor rewrite)


TABLE_FILE = "src/qt/bitcoin.cpp"


def _filler(n: int) -> list[str]:
    lines = []
    while len(lines) < n:
        k = len(lines)
        lines.append(f"static int helperValue{k} = {k};")
    return lines[:n]


_OLD_TAIL = [
    "BitcoinApplication::BitcoinApplication(int argc, char* argv[]):",
    "    QApplication(argc, argv),",
    "    coreThread(nullptr),",
    "    m_node(node),",
    "    optionsModel(nullptr),",
]

_NEW_BLOCK = [
    "static int qt_argc = 1;",
    'static const char* qt_argv = "bitcoin-qt";',
    "",
    "BitcoinApplication::BitcoinApplication(...):",
    "    QApplication(qt_argc, const_cast<char **>(...)),",
]


def _table_content(qt_name: str, rewritten: bool) -> str:
    head = _filler(200) + ["    }", "}", ""]
    if rewritten:
        block = list(_NEW_BLOCK)
        block[1] = f'static const char* qt_argv = "{qt_name}";'
        tail = block + _OLD_TAIL[2:]
    else:
        tail = list(_OLD_TAIL)
    return "\n".join(head + tail) + "\n"


@pytest.fixture(scope="session")
def table_repo(tmp_path_factory):
    """Target history: constructor block rewritten 2019-08-10, string tweaked
    2020-06-26, releases tagged 2020-02-22 and 2020-08-01.

    Returns (repo path, rewrite sha, tweak sha). At HEAD the interesting
    region sits at lines 201-211, with lines 204-208 owned by the two later
    commits (205 by the tweak, the rest by the rewrite).
    """
    repo = init_repo(tmp_path_factory.mktemp("table") / "qtumlike")
    write_files(repo, {TABLE_FILE: _table_content("", rewritten=False)})
    commit_all(repo, "import qt application", datetime(2019, 1, 1, tzinfo=UTC))
    write_files(repo, {TABLE_FILE: _table_content("bitcoin-qt", rewritten=True)})
    c_rewrite = commit_all(
        repo, "qt: make argc/argv static", datetime(2019, 8, 10, tzinfo=UTC)
    )
    tag_annotated(
        repo, "mainnet-ignition-v0.19.0", datetime(2020, 2, 22, tzinfo=UTC)
    )
    write_files(repo, {TABLE_FILE: _table_content("qtum-qt", rewritten=True)})
    c_tweak = commit_all(
        repo, "qt: rebrand application name", datetime(2020, 6, 26, tzinfo=UTC)
    )
    tag_annotated(
        repo, "mainnet-ignition-v0.20.0", datetime(2020, 8, 1, tzinfo=UTC)
    )
    return repo, c_rewrite, c_tweak
