"""Thin adapter over local git repositories.

Exactly the queries the scan pipeline needs, one git call each: a grep for
any of several substrings (a scan greps each target once, for every
patch's context keywords), file content, and line blame with commit times
at a revision, a commit's diff headed by its id and committer time, commit
timestamps, and the dated tags that contain a commit.
Every query takes the revision or commit it reads; a handle holds none.
"""

from __future__ import annotations

import re
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path


class GitError(Exception):
    """A git invocation failed or the repository is unreadable."""


class NotFoundError(GitError):
    """The requested object (path, commit) is absent at the revision."""


@dataclass(frozen=True)
class GrepHit:
    path: str
    line_no: int  # 1-based
    raw_line: str


class RepoHandle:
    """Handle over a local git repository, read-only."""

    def __init__(self, root_path: str | Path):
        self.root = Path(root_path)
        if not self.root.is_dir():
            raise GitError(f"not a directory: {self.root}")
        probe = self._run(["rev-parse", "--git-dir"])
        if probe.returncode != 0:
            raise GitError(f"not a git repository: {self.root}")

    def __repr__(self) -> str:
        return f"RepoHandle({str(self.root)!r})"

    @property
    def name(self) -> str:
        return self.root.name

    def _run(self, args: list[str]) -> subprocess.CompletedProcess:
        """Run git in the repository; the caller reads the exit status."""
        cmd = ["git", "-C", str(self.root), "-c", "core.quotepath=false"] + args
        return subprocess.run(cmd, capture_output=True)


def _decode(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


def _split_lines(text: str) -> list[str]:
    """Split file content into lines without inventing a trailing empty one."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


_GREP_LINE_RE = re.compile(r"^(.*?):(\d+):(.*)$", re.DOTALL)


def grep_repo(repo: RepoHandle, keywords: list[str], rev: str) -> list[GrepHit]:
    """Every line at rev containing any of keywords as a fixed substring.

    One git call for all keywords; a line matching several is one hit.
    Case-sensitive; binary files skipped. Hits are ordered by (path, line).
    """
    if not keywords or not all(keywords):
        raise ValueError("keywords must be non-empty strings")
    patterns = [arg for kw in keywords for arg in ("-e", kw)]
    proc = repo._run(["grep", "-I", "-n", "-F", *patterns, rev])
    if proc.returncode == 1 and not proc.stderr:
        return []
    if proc.returncode != 0:
        raise GitError(
            f"git grep failed in {repo.root}: {_decode(proc.stderr).strip()}"
        )
    prefix = rev + ":"
    hits: list[GrepHit] = []
    for line in _split_lines(_decode(proc.stdout)):
        if line.startswith(prefix):
            line = line[len(prefix):]
        m = _GREP_LINE_RE.match(line)
        if not m:
            continue
        hits.append(GrepHit(path=m.group(1), line_no=int(m.group(2)), raw_line=m.group(3)))
    hits.sort(key=lambda h: (h.path, h.line_no))
    return hits


def read_file_at(repo: RepoHandle, rev: str, path: str) -> list[str]:
    """Full file content at rev, split into lines (original text preserved)."""
    proc = repo._run(["show", f"{rev}:{path}"])
    if proc.returncode != 0:
        err = _decode(proc.stderr)
        if "does not exist" in err or "exists on disk, but not in" in err:
            raise NotFoundError(f"{path} absent at {rev} in {repo.root}")
        raise GitError(f"git show {rev}:{path} failed: {err.strip()}")
    return _split_lines(_decode(proc.stdout))


_BLAME_HEADER_RE = re.compile(r"^([0-9a-f]{40}) \d+ \d+")


def blame_lines(
    repo: RepoHandle, rev: str, path: str, start: int, end: int
) -> dict[str, datetime]:
    """The commits that last touched a line in [start, end], each with its
    committer time in UTC."""
    if start < 1 or end < start:
        raise ValueError(f"invalid blame range {start}..{end}")
    proc = repo._run(["blame", "--porcelain", "-L", f"{start},{end}", rev, "--", path])
    if proc.returncode != 0:
        err = _decode(proc.stderr)
        if "has only" in err:
            raise GitError(f"blame range {start}..{end} out of bounds: {err.strip()}")
        if "no such path" in err:
            raise NotFoundError(f"{path} absent at {rev} in {repo.root}")
        raise GitError(f"git blame failed: {err.strip()}")
    # Porcelain prints a commit's headers (committer-time among them) only
    # at the first line it owns; content lines start with a tab.
    times: dict[str, datetime] = {}
    sha = ""
    for line in _split_lines(_decode(proc.stdout)):
        m = _BLAME_HEADER_RE.match(line)
        if m:
            sha = m.group(1)
        elif line.startswith("committer-time "):
            stamp = int(line[len("committer-time "):])
            times[sha] = datetime.fromtimestamp(stamp, timezone.utc)
    return times


def commit_diff(repo: RepoHandle, sha: str) -> str:
    """The commit's full id and committer time (strict ISO 8601) on the
    first line, then a blank line and its diff with whole-file context; a
    merge commit is diffed against its first parent, a root commit against
    the empty tree."""
    proc = repo._run(
        ["diff-tree", "--root", "-r", "-p", "-U2147483647", "--no-color",
         "--format=%H %cI", "--diff-merges=first-parent", sha]
    )
    if proc.returncode != 0:
        raise NotFoundError(
            f"cannot diff commit {sha} in {repo.root}: {_decode(proc.stderr).strip()}"
        )
    return _decode(proc.stdout)


def commit_time(repo: RepoHandle, sha: str) -> datetime:
    """Committer timestamp of a commit, normalized to UTC."""
    proc = repo._run(["show", "-s", "--format=%cI", f"{sha}^{{commit}}"])
    if proc.returncode != 0:
        raise NotFoundError(f"unknown commit {sha} in {repo.root}")
    stamp = _decode(proc.stdout).strip().splitlines()[-1]
    return datetime.fromisoformat(stamp).astimezone(timezone.utc)


def releases_containing(repo: RepoHandle, sha: str) -> list[tuple[str, datetime]]:
    """Tags whose history contains sha, with creation timestamps, ascending.

    Annotated tags report the tag date, lightweight tags the tagged commit's
    committer date.
    """
    proc = repo._run(
        ["tag", "--contains", sha,
         "--format=%(refname:short)%09%(creatordate:iso-strict)"]
    )
    if proc.returncode != 0:
        raise NotFoundError(
            f"unknown commit {sha} in {repo.root}: {_decode(proc.stderr).strip()}"
        )
    releases: list[tuple[str, datetime]] = []
    for row in _split_lines(_decode(proc.stdout)):
        name, _, stamp = row.partition("\t")
        if not stamp:
            continue
        releases.append((name, datetime.fromisoformat(stamp).astimezone(timezone.utc)))
    releases.sort(key=lambda it: (it[1], it[0]))
    return releases
