"""Thin adapter over local git repositories.

One git call per query: a grep for any of several substrings (a scan greps
each target once, for every patch's context keywords), the content of one
file or of many (one `cat-file --batch` reads every file a target's search
needs, and a name no batch line can carry is read alone), line blame with
commit times at a revision, and the dated tags that contain a commit.
Every patch commit of a scan is read with two: one `cat-file` resolves
each revision to its full commit id, one `diff-tree --stdin` diffs them
all, each diff headed by its id and committer time.
Every query takes the revision or commit it reads; a handle holds none
and runs no git, so the first query reports a non-repository. A path is
relative to the handle's directory, as grep prints it; where there is no
work tree (a bare repository), the first file read takes two calls. git
runs in the C locale: the English error texts that tell a missing path from a
failure are what it prints. commit_time has no caller in forkscan; it
stays because the benchmark's tracer (perfbench/tracer.py) wraps it.
"""

from __future__ import annotations

import os
import re
import subprocess
from collections.abc import Callable
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple


class GitError(Exception):
    """A git invocation failed or the repository is unreadable."""


class NotFoundError(GitError):
    """The requested object (path, commit) is absent at the revision."""


class GrepHit(NamedTuple):
    path: str
    line_no: int  # 1-based
    raw_line: str


# The environment of every git process: messages in English whatever the
# user's locale, since read_file_at and blame_lines read them.
_GIT_ENV = dict(os.environ, LC_ALL="C")


class RepoHandle:
    """Handle over a local git repository, read-only; opening it runs no git."""

    def __init__(self, root_path: str | Path):
        self.root = Path(root_path)
        if not self.root.is_dir():
            raise GitError(f"not a directory: {self.root}")
        # What an object name puts before a path grep printed: "./" reads
        # it relative to root, as grep prints it and blame takes it. Where
        # root has no work tree (a bare repository), git refuses "./" and
        # paths are relative to the top already; _read learns this once.
        self._here = "./"

    def __repr__(self) -> str:
        return f"RepoHandle({str(self.root)!r})"

    def _run(
        self, args: list[str], input: bytes | None = None
    ) -> subprocess.CompletedProcess:
        """Run git in the repository with input on its stdin; the caller reads
        the exit status. No git to run, or no repository, raises GitError."""
        cmd = ["git", "-C", str(self.root), "-c", "core.quotepath=false"] + args
        try:
            proc = subprocess.run(cmd, input=input, capture_output=True, env=_GIT_ENV)
        except OSError as exc:
            raise GitError(f"cannot run git: {exc}") from exc
        if proc.returncode == 128 and b"not a git repository" in proc.stderr:
            raise GitError(f"not a git repository: {self.root}")
        return proc


def _decode(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


def _stderr_line(proc: subprocess.CompletedProcess) -> str:
    """git's stderr as one line: each run of whitespace, line breaks
    included, becomes one space, so a warning or a note is one line."""
    return " ".join(_decode(proc.stderr).split())


def _split_lines(text: str) -> list[str]:
    """Split file content into lines without inventing a trailing empty one."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def grep_repo(repo: RepoHandle, keywords: list[str], rev: str) -> list[GrepHit]:
    """Every line at rev containing any of keywords as a fixed substring.

    One git call for all keywords; a line matching several is one hit.
    Case-sensitive; binary files skipped. Hits are ordered by (path, line).
    """
    if not keywords or not all(keywords):
        raise ValueError("keywords must be non-empty strings")
    patterns = [arg for kw in keywords for arg in ("-e", kw)]
    proc = repo._run(["grep", "-I", "-n", "-z", "-F", *patterns, rev])
    if proc.returncode == 1 and not proc.stderr:
        return []
    if proc.returncode != 0:
        raise GitError(f"git grep failed in {repo.root}: {_stderr_line(proc)}")
    # -z ends the path and the line number with NUL and leaves the path
    # unquoted, so a path may hold ":" or a newline. The text runs to the
    # newline git ends every hit with, and may hold a NUL: git looks for
    # one only near the start of a file. So each hit is read field by field.
    prefix = rev + ":"
    out = _decode(proc.stdout)
    hits: list[GrepHit] = []
    pos = 0
    while pos < len(out):
        path_end = out.index("\0", pos)
        no_end = out.index("\0", path_end + 1)
        text_end = out.index("\n", no_end + 1)
        path = out[pos:path_end].removeprefix(prefix)
        hits.append(GrepHit(path, int(out[path_end + 1:no_end]), out[no_end + 1:text_end]))
        pos = text_end + 1
    hits.sort(key=lambda h: (h.path, h.line_no))
    return hits


# What git says when an object name rev:./path is read with no work tree.
_NO_WORK_TREE = b"relative path syntax can't be used outside working tree"


def _read(
    repo: RepoHandle, run: Callable[[str], tuple[list[str], bytes | None]]
) -> subprocess.CompletedProcess:
    """Run the git read that run(here) gives, each of its object names
    spelled rev:<here>path. A handle with no work tree refuses the first
    read; it runs again, and later reads run, with here empty."""
    proc = repo._run(*run(repo._here))
    if repo._here and proc.returncode == 128 and _NO_WORK_TREE in proc.stderr:
        repo._here = ""
        proc = repo._run(*run(""))
    return proc


def read_file_at(repo: RepoHandle, rev: str, path: str) -> list[str]:
    """Full file content at rev, split into lines (original text preserved).

    Like grep's output and blame's path, path is relative to the handle's
    directory, so a handle on a subdirectory of a repository reads that
    subtree."""
    proc = _read(repo, lambda here: (["show", f"{rev}:{here}{path}"], None))
    if proc.returncode != 0:
        err = _decode(proc.stderr)
        if "does not exist" in err or "exists on disk, but not in" in err:
            raise NotFoundError(f"{path} absent at {rev} in {repo.root}")
        raise GitError(f"git show {rev}:{path} failed: {_stderr_line(proc)}")
    return _split_lines(_decode(proc.stdout))


def read_files_at(repo: RepoHandle, rev: str, paths: list[str]) -> dict[str, list[str]]:
    """The content of each of paths that is a file at rev, split and
    named as read_file_at splits and names it; a path absent at rev is
    left out.

    One git call reads every path that a batch line can name. A path that
    holds a newline, or ends in a carriage return (which git strips from
    a batch line), is read alone with read_file_at.
    """
    if "\n" in rev:
        return {}
    files: dict[str, list[str]] = {}
    names: list[str] = []
    for path in paths:
        if "\n" not in path and not path.endswith("\r"):
            names.append(path)
            continue
        try:
            files[path] = read_file_at(repo, rev, path)
        except NotFoundError:
            pass
    if not names:
        return files
    proc = _read(repo, lambda here: (
        ["cat-file", "--batch=%(objecttype) %(objectsize)"],
        "".join(f"{rev}:{here}{p}\n" for p in names).encode(),
    ))
    if proc.returncode != 0:
        raise GitError(f"git cat-file failed: {_stderr_line(proc)}")
    # Each object is "<type> <size>\n<size bytes>\n"; a name that is no
    # object is one line "<name> missing" (or "ambiguous").
    out = proc.stdout
    pos = 0
    for path in names:
        end = out.index(b"\n", pos)
        kind, _, size = out[pos:end].rpartition(b" ")
        pos = end + 1
        if not size.isdigit():
            continue
        data = out[pos:pos + int(size)]
        pos += int(size) + 1
        if kind == b"blob":
            files[path] = _split_lines(_decode(data))
    return files


# A commit id is 40 hex digits (SHA-1) or 64 (SHA-256).
_BLAME_HEADER_RE = re.compile(r"^([0-9a-f]{40}(?:[0-9a-f]{24})?) \d+ \d+")


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
            raise GitError(
                f"blame range {start}..{end} out of bounds: {_stderr_line(proc)}"
            )
        if "no such path" in err:
            raise NotFoundError(f"{path} absent at {rev} in {repo.root}")
        raise GitError(f"git blame failed: {_stderr_line(proc)}")
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


class SameCommitError(ValueError):
    """Two revisions given to commit_diffs name one commit."""

    def __init__(self, commit: str):
        super().__init__(f"two revisions are commit {commit}")
        self.commit = commit


def commit_diffs(repo: RepoHandle, shas: list[str]) -> list[str]:
    """Each commit's full id and committer time (strict ISO 8601) on its
    first line, then a blank line and its diff with whole-file context; a
    merge commit is diffed against its first parent, a root commit against
    the empty tree, and an empty commit is its first line alone.

    Two git calls for all shas: one resolves each to its full commit id
    (an unknown sha raises NotFoundError, two shas naming one commit raise
    SameCommitError, both before any diff), one diffs them all.
    """
    if not shas:
        return []
    for sha in shas:
        if "\n" in sha:  # would read as two names
            raise NotFoundError(f"unknown commit {sha!r} in {repo.root}")
    proc = repo._run(
        ["cat-file", "--batch-check=%(objectname) %(objecttype)"],
        input="".join(f"{sha}^{{commit}}\n" for sha in shas).encode(),
    )
    if proc.returncode != 0:
        raise GitError(f"git cat-file failed: {_stderr_line(proc)}")
    full_ids: list[str] = []
    for sha, line in zip(shas, _split_lines(_decode(proc.stdout))):
        full_id, _, kind = line.rpartition(" ")  # kind: missing, ambiguous
        if kind != "commit":
            raise NotFoundError(f"unknown commit {sha} in {repo.root} ({kind})")
        if full_id in full_ids:
            raise SameCommitError(full_id)
        full_ids.append(full_id)
    proc = repo._run(
        ["diff-tree", "--stdin", "--always", "--root", "-r", "-p", "-U2147483647",
         "--no-color", "--format=%H %cI", "--diff-merges=first-parent"],
        input="".join(f"{full_id}\n" for full_id in full_ids).encode(),
    )
    if proc.returncode != 0:
        raise GitError(f"git diff-tree failed: {_stderr_line(proc)}")
    # Each commit's output starts with a line "<full id> <time>"; a diff
    # line starts with " ", "+", "-", "@", "\\" or a header word, so no
    # line inside a diff can look like the next commit's first line.
    out = _decode(proc.stdout)
    starts = [0]
    for full_id in full_ids[1:]:
        starts.append(out.index(f"\n{full_id} ", starts[-1]) + 1)
    return [out[a:b] for a, b in zip(starts, starts[1:] + [len(out)])]


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
            f"unknown commit {sha} in {repo.root}: {_stderr_line(proc)}"
        )
    releases: list[tuple[str, datetime]] = []
    for row in _split_lines(_decode(proc.stdout)):
        name, _, stamp = row.partition("\t")
        if not stamp:
            continue
        releases.append((name, datetime.fromisoformat(stamp).astimezone(timezone.utc)))
    releases.sort(key=lambda it: (it[1], it[0]))
    return releases
