"""Command line front end: flags, the scan loop, exit codes.

detect       scan target repositories for the presence of source patches
sweep-r      score fragment pairs under a range of reward factors
gen-fixtures build the deterministic planted-clone corpus

Every setting is a flag with its default on the parser. An argument `@FILE`
stands for the lines of FILE, one argument per line, blank lines skipped; a
flag that takes one value keeps the last one given, and repeatable flags add
up.

Exit codes: 0 clean scan, 1 at least one Vulnerable verdict, 2 configuration
error, 3 source repository or patch unreadable. Failures scoped to a single
(patch, target) pair degrade to ContextNotFound rows and never abort a run.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

from . import __version__, delay, gitio, patchmodel, report, search, verdict, warn
from .gitio import RepoHandle
from .patchmodel import Patch, PatchError
from .report import DelayRecord, ResultRow, ScanReport
from .simcore import KS_THRESHOLD, R, T, reward_sweep
from .verdict import Status


class ConfigError(Exception):
    """Unusable configuration; maps to exit code 2."""


class RunConfig(NamedTuple):
    source: str
    patch_shas: list[str]
    patch_files: list[str]
    targets: list[tuple[str, str]]  # (path, rev)
    out: str


def _read_input(path: str | Path, what: str) -> str:
    """A file named on the command line, as UTF-8 text with each undecodable
    byte replaced; a file that cannot be read is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _parse_target_token(token: str) -> tuple[str, str]:
    path, _, rev = token.partition(",")
    if not path:
        raise ConfigError(f"empty target in {token!r}")
    return (path, rev or "HEAD")


def _build_config(args: argparse.Namespace) -> RunConfig:
    if not args.source:
        raise ConfigError("a source repository is required (--source)")

    patch_shas = list(args.patch)
    if args.manifest:
        text = _read_input(args.manifest, "manifest")
        try:
            patch_shas += patchmodel.parse_manifest(text)
        except PatchError as exc:
            raise ConfigError(f"bad manifest {args.manifest}: {exc}") from exc
    if not patch_shas and not args.patch_file:
        raise ConfigError("no patches given (--patch, --patch-file or --manifest)")

    if not args.target:
        raise ConfigError("at least one --target is required")
    targets = [_parse_target_token(tok) for tok in args.target]

    # A report row is keyed by (patch label, target name).
    labels = patch_shas + [Path(f).name for f in args.patch_file]
    for what, names in (("patches are labelled", labels),
                        ("targets are named", _unique_names(targets))):
        repeated = [n for i, n in enumerate(names) if n in names[:i]]
        if repeated:
            raise ConfigError(f"two {what} {repeated[0]}")

    for p in [args.source, *args.patch_file, *(t[0] for t in targets)]:
        if not Path(p).exists():
            raise ConfigError(f"path does not exist: {p}")
    out = Path(args.out)
    if out.is_dir():
        raise ConfigError(f"cannot write {args.out}: it is a directory")
    ancestor = next(p for p in out.parents if p.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"cannot write {args.out}: {ancestor} is not a directory")
    if len(set(_output_paths(args.out))) < 3:
        raise ConfigError(
            f"cannot write {args.out}: the report, its .csv and delay_cdf.csv "
            "need three distinct paths"
        )

    return RunConfig(
        source=args.source,
        patch_shas=patch_shas,
        patch_files=args.patch_file,
        targets=targets,
        out=args.out,
    )


def _unique_names(targets: list[tuple[str, str]]) -> list[str]:
    """The basename where it is unique, else the path; a path scanned at
    more than one revision is named `path,rev`."""
    names = [Path(p).name or p for p, _ in targets]
    names = [n if names.count(n) == 1 else p for n, (p, _) in zip(names, targets)]
    return [
        f"{n},{rev}" if len({r for q, r in targets if q == p}) > 1 else n
        for n, (p, rev) in zip(names, targets)
    ]


def _open_targets(
    targets: list[dict], keywords: frozenset[str]
) -> Iterator[tuple[str, search.StatementCache | gitio.GitError]]:
    """Each target's name and cache, opened (one grep, one file read) when the
    scan reaches it; a target that cannot be opened gives its GitError."""
    for t in targets:
        try:
            yield t["name"], search.StatementCache(RepoHandle(t["path"]), t["rev"], keywords)
        except gitio.GitError as exc:
            warn(__spec__.name, f"target {t['path']} unusable: {exc}")
            yield t["name"], exc


def _load_patches(config: RunConfig) -> list[Patch]:
    try:
        diffs = gitio.commit_diffs(RepoHandle(config.source), config.patch_shas)
    except gitio.SameCommitError as exc:
        raise ConfigError(f"two patches are commit {exc.commit}") from exc
    patches = [patchmodel.load_patch(d, sha) for d, sha in zip(diffs, config.patch_shas)]
    for file in config.patch_files:
        text = _read_input(file, "patch file")
        try:
            patches.append(patchmodel.parse_patch(text, Path(file).name))
        except PatchError as exc:
            raise ConfigError(f"bad patch file {file}: {exc}") from exc
    return patches


def _scan_one_hunk(cache: search.StatementCache, hunk):
    outcome = search.collect_candidates(cache, hunk)
    return [verdict.judge_candidate(c, hunk) for c in outcome.candidates]


def run_detect(config: RunConfig) -> tuple[int, ScanReport]:
    """Scan the targets one at a time, then write the report files."""
    patches = _load_patches(config)
    keywords = frozenset(kw.keyword for patch in patches for hunk in patch.hunks
                         for ctx in (hunk.up_ctx, hunk.down_ctx) for kw in ctx.keywords)
    targets = [{"name": n, "path": p, "rev": r}
               for n, (p, r) in zip(_unique_names(config.targets), config.targets)]
    rows: list[ResultRow] = []
    for name, cache in _open_targets(targets, keywords):
        rows += _target_rows(patches, name, cache)
        del cache  # its statements go before the next target opens

    scan = ScanReport(
        tool_version=__version__,
        params={
            "r": R,
            "t": T,
            "ks_threshold": KS_THRESHOLD,
            "context_lines": patchmodel.CONTEXT_LINES,
            "max_candidates": search.MAX_CANDIDATES,
        },
        patches=[
            {
                "label": p.label,
                "sha": p.source_sha,
                "committed_at": report.delay_iso(p.committed_at),
                "hunks": len(p.hunks),
            }
            for p in patches
        ],
        targets=targets,
        results=rows,
    )
    _write_outputs(scan, config.out)
    code = 1 if any(r.status == Status.VULNERABLE.value for r in rows) else 0
    return code, scan


def _target_rows(
    patches: list[Patch], name: str, cache: search.StatementCache | gitio.GitError
) -> list[ResultRow]:
    """Every patch's row on one target, noting a failed hunk or why the
    target is unusable."""
    if isinstance(cache, gitio.GitError):
        note = [f"target unusable: {cache}"]
        return [_row_for(p, name, verdict.aggregate([]), note, None) for p in patches]
    judged = []
    for patch in patches:
        notes, hunk_judgments = [], []
        for hi, hunk in enumerate(patch.hunks):
            try:
                hunk_judgments.append(_scan_one_hunk(cache, hunk))
            except Exception as exc:
                warn(__spec__.name, f"scan failed for {patch.label} hunk {hi} in {name}: {exc}")
                notes.append(f"hunk {hi}: {exc}")
                hunk_judgments.append([])
        judged.append((patch, verdict.aggregate(hunk_judgments), notes))
    fixes = _look_up_fixes(name, cache, [v for _, v, _ in judged])
    return [_row_for(p, name, v, notes, fix) for (p, v, notes), fix in zip(judged, fixes)]


def _look_up_fixes(
    name: str, cache: search.StatementCache, verdicts: list[verdict.Verdict]
) -> list[DelayRecord | gitio.GitError | None]:
    """Per verdict on the target, its Fixed region's fix or lookup GitError,
    None if not Fixed; each distinct region is looked up and warned about once."""
    found: dict[tuple, DelayRecord | gitio.GitError] = {}
    fixes: list[DelayRecord | gitio.GitError | None] = []
    for v in verdicts:
        if v.status is not Status.FIXED:
            fixes.append(None)
            continue
        cand = v.winning.candidate
        region = (cand.path, delay.blame_span(cand))
        if region not in found:
            try:
                found[region] = delay.fix_delay(cache.repo, cache.rev, *region)
            except gitio.GitError as exc:
                warn(__spec__.name, f"delay lookup failed for {name}: {exc}")
                found[region] = exc.with_traceback(None)  # holds no frame, no cache
        fixes.append(found[region])
    return fixes


def _row_for(
    patch: Patch, target: str, v: verdict.Verdict, notes: list[str],
    fix: DelayRecord | gitio.GitError | None,
) -> ResultRow:
    """The report row of one verdict: the winning candidate's audit trail
    and, for a Fixed verdict, fix with its delay or a failed lookup's note."""
    if isinstance(fix, gitio.GitError):
        notes, fix = [*notes, f"delay: {fix}"], None
    elif fix is not None and fix.release is not None and patch.committed_at is not None:
        fix = fix._replace(delay_days=delay.patch_delay(patch.committed_at, fix.release[1]))
    w = v.winning
    cand = w and w.candidate
    up, down = (cand.paired_up, cand.paired_down) if cand else (None, None)
    return ResultRow(
        patch=patch.label,
        target=target,
        status=v.status.value,
        conf=round(v.conf, 6),
        path=cand and cand.path,
        span=cand and cand.span,
        ctx_sim_up=_round(up and up.ctx_sim),
        ctx_sim_down=_round(down and down.ctx_sim),
        s_del=_round(w and w.s_del),
        s_add=_round(w and w.s_add),
        delay=fix,
        note="; ".join(notes),
    )


def _round(v: float | None) -> float | None:
    return round(v, 6) if v is not None else None


def _output_paths(out: str) -> tuple[Path, Path, Path]:
    """The JSON report, the flat CSV beside it and the delay CDF."""
    out_path = Path(out)
    return out_path, out_path.with_suffix(".csv"), out_path.parent / "delay_cdf.csv"


def _write_outputs(scan: ScanReport, out: str) -> None:
    out_path, csv_path, cdf_path = _output_paths(out)
    delays = [
        float(r.delay.delay_days)
        for r in scan.results
        if r.delay is not None and r.delay.delay_days is not None
    ]
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(report.emit_report(scan, "json"), encoding="utf-8")
        csv_path.write_text(report.emit_report(scan, "csv"), encoding="utf-8",
                            errors="surrogateescape")
        if delays:
            report.write_cdf_csv(report.emit_cdf(delays), str(cdf_path))
        else:
            cdf_path.unlink(missing_ok=True)  # a CDF left by an earlier scan
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# sweep-r


def _load_pairs(pairs_dir: str) -> list[tuple[list[str], list[str]]]:
    """Fragment pairs from <stem>.a.txt / <stem>.b.txt files (one statement
    per line, blank lines ignored)."""
    root = Path(pairs_dir)
    if not root.is_dir():
        raise ConfigError(f"not a directory: {pairs_dir}")

    def fragment(path: Path) -> list[str]:
        return [
            line.strip()
            for line in _read_input(path, "fragment file").splitlines()
            if line.strip()
        ]

    pairs = []
    for stem in sorted({f.name[:-len(".a.txt")] for f in root.glob("*.[ab].txt")}):
        a_file, b_file = root / f"{stem}.a.txt", root / f"{stem}.b.txt"
        if not (a_file.exists() and b_file.exists()):
            orphan = a_file if a_file.exists() else b_file
            raise ConfigError(f"missing counterpart for {orphan.name}")
        a, b = fragment(a_file), fragment(b_file)
        if a and b:
            pairs.append((a, b))
    if not pairs:
        raise ConfigError(f"no fragment pairs found under {pairs_dir}")
    return pairs


def run_sweep(pairs_dir: str, r_values: list[float], out: str) -> int:
    pairs = _load_pairs(pairs_dir)
    try:
        swept = reward_sweep(pairs, r_values)
    except ValueError as exc:
        raise ConfigError(f"bad parameter: {exc}") from exc
    try:
        report.write_rsweep_csv([(r, report.emit_cdf(scores)) for r, scores in swept], out)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc
    print(f"swept {len(pairs)} pairs over r={r_values} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", help="source (upstream) repository path")
    p.add_argument(
        "--patch", action="append", default=[], help="patch commit sha (repeatable)"
    )
    p.add_argument(
        "--patch-file", action="append", default=[],
        help="unified diff file (repeatable)",
    )
    p.add_argument("--manifest", help="file with one patch sha per line")
    p.add_argument(
        "--target", action="append", default=[],
        help="target repo as path[,rev] (repeatable)",
    )
    p.add_argument(
        "--jobs", type=int, choices=(1,), default=1,
        help="scans run on one thread; only 1 is accepted",
    )
    p.add_argument("--out", default="report.json", help="report path (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        """One argument per `@FILE` line; a blank line is none."""
        return [arg_line] if arg_line.strip() else []


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="forkscan",
        description="Check forked repositories for unapplied security patches.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=f"forkscan {__version__}")
    parser.add_argument(
        "--verbose", action="store_true",
        help="also print INFO lines to stderr (give it before the command)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviations: a dropped flag must not read as another (`--t` as
    # `--target`).
    detect = sub.add_parser(
        "detect", help="scan targets for patch presence", allow_abbrev=False
    )
    _add_detect_flags(detect)

    sweep = sub.add_parser("sweep-r", help="score fragment pairs across reward factors")
    sweep.add_argument("--pairs", required=True, help="directory of *.a.txt/*.b.txt")
    sweep.add_argument(
        "--r", type=float, nargs="+", required=True, help="reward factors to score"
    )
    sweep.add_argument("--out", default="rsweep_cdf.csv")

    gen = sub.add_parser("gen-fixtures", help="build the planted-clone corpus")
    gen.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UnicodeDecodeError as exc:  # an @FILE, decoded strictly before 3.12
        print(f"error: cannot read an @FILE argument: {exc}", file=sys.stderr)
        return 2
    search.verbose = args.verbose

    try:
        if args.command == "detect":
            code, scan = run_detect(_build_config(args))
            enc = sys.stdout.encoding or "utf-8"
            for target, n in sorted(scan.summary().items()):
                line = (f"{target}: {n['Vulnerable']} vulnerable, {n['Fixed']} fixed, "
                        f"{n['ContextNotFound']} context-not-found")
                print(line.encode(enc, "backslashreplace").decode(enc))
            return code
        if args.command == "sweep-r":
            return run_sweep(args.pairs, args.r, args.out)
        # gen-fixtures: the parser accepts no other command. Only it
        # imports the corpus writer, so a scan does not load it.
        from . import fixturegen

        out = Path(args.out)
        if out.exists() and (out.is_file() or any(out.iterdir())):
            raise ConfigError(f"output directory not empty: {args.out}")
        corpus = fixturegen.gen_fixtures(fixturegen.default_cases(), args.out)
        print(f"built {len(corpus['cases'])} cases under {args.out}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (gitio.GitError, PatchError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
