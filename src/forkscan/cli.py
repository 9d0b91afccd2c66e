"""Command line front end: configuration, the scan loop, exit codes.

detect       scan target repositories for the presence of source patches
sweep-r      score fragment pairs under a range of reward factors
gen-fixtures build the deterministic planted-clone corpus

Exit codes: 0 clean scan, 1 at least one Vulnerable verdict, 2 configuration
error, 3 source repository or patch unreadable. Failures scoped to a single
(patch, target) pair degrade to ContextNotFound rows and never abort a run.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, delay, fixturegen, gitio, patchmodel, report, search, verdict
from .gitio import RepoHandle
from .patchmodel import Patch, PatchError
from .report import ResultRow, ScanReport
from .simcore import SimilarityParams, reward_sweep
from .verdict import Status

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """Unusable configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    source: str
    patch_shas: list[str] = field(default_factory=list)
    patch_files: list[str] = field(default_factory=list)
    targets: list[tuple[str, str]] = field(default_factory=list)  # (path, rev)
    params: SimilarityParams = SimilarityParams()
    c_lines: int = 5
    max_candidates: int = 10
    out: str = "report.json"


# Every key a config file may hold; any other key is a configuration error.
CONFIG_KEYS = (
    "source", "patch", "patch_file", "manifest", "targets", "r", "t",
    "ks_threshold", "context_lines", "max_candidates", "out",
)


def parse_config_file(text: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; later keys win."""
    values: dict[str, str] = {}
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"config line {no} is not `key = value`: {raw!r}")
        values[key.strip()] = value.strip()
    return values


def _parse_target_token(token: str) -> tuple[str, str]:
    path, _, rev = token.partition(",")
    if not path:
        raise ConfigError(f"empty target in {token!r}")
    return (path, rev or "HEAD")


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg: dict[str, str] = {}
    if args.config:
        try:
            cfg = parse_config_file(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    unknown = [key for key in cfg if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    def pick(key: str, default):
        """The flag of that name, else the config key, else the default."""
        flag = getattr(args, key)
        if flag is not None:
            return flag
        return cfg.get(key, default)

    source = pick("source", None)
    if not source:
        raise ConfigError("a source repository is required (--source)")

    patch_shas = list(args.patch or [])
    patch_files = list(args.patch_file or [])
    if not patch_shas and "patch" in cfg:
        patch_shas = cfg["patch"].split()
    if not patch_files and "patch_file" in cfg:
        patch_files = cfg["patch_file"].split()
    manifest = pick("manifest", None)
    if manifest:
        try:
            entries = patchmodel.parse_manifest(
                Path(manifest).read_text(encoding="utf-8")
            )
        except (OSError, PatchError) as exc:
            raise ConfigError(f"bad manifest {manifest}: {exc}") from exc
        patch_shas.extend(sha for sha, _ in entries)
    if not patch_shas and not patch_files:
        raise ConfigError("no patches given (--patch, --patch-file or --manifest)")

    target_tokens = list(args.target or [])
    if not target_tokens and "targets" in cfg:
        target_tokens = cfg["targets"].split()
    if not target_tokens:
        raise ConfigError("at least one --target is required")
    targets = [_parse_target_token(tok) for tok in target_tokens]

    try:
        params = SimilarityParams(
            r=float(pick("r", SimilarityParams.r)),
            t=float(pick("t", SimilarityParams.t)),
            ks_threshold=float(pick("ks_threshold", SimilarityParams.ks_threshold)),
        )
        c_lines = int(pick("context_lines", RunConfig.c_lines))
        max_candidates = int(pick("max_candidates", RunConfig.max_candidates))
    except ValueError as exc:
        raise ConfigError(f"bad parameter: {exc}") from exc
    if c_lines < 1:
        raise ConfigError("context-lines must be >= 1")
    if max_candidates < 0:
        raise ConfigError("max-candidates must be >= 0")

    for p in [source, *patch_files, *(t[0] for t in targets)]:
        if not Path(p).exists():
            raise ConfigError(f"path does not exist: {p}")

    return RunConfig(
        source=source,
        patch_shas=patch_shas,
        patch_files=patch_files,
        targets=targets,
        params=params,
        c_lines=c_lines,
        max_candidates=max_candidates,
        out=pick("out", RunConfig.out),
    )


@dataclass
class _TargetCtx:
    name: str
    path: str
    rev: str
    cache: search.StatementCache | None = None
    error: str = ""


def _unique_names(targets: list[tuple[str, str]]) -> list[str]:
    names = [Path(p).name or p for p, _ in targets]
    return [
        n if names.count(n) == 1 else targets[i][0] for i, n in enumerate(names)
    ]


def _open_targets(config: RunConfig) -> list[_TargetCtx]:
    ctxs: list[_TargetCtx] = []
    for name, (path, rev) in zip(_unique_names(config.targets), config.targets):
        ctx = _TargetCtx(name=name, path=path, rev=rev)
        try:
            ctx.cache = search.StatementCache(RepoHandle(path), rev)
        except gitio.GitError as exc:
            ctx.error = str(exc)
            log.warning("target %s unusable: %s", path, exc)
        ctxs.append(ctx)
    return ctxs


def _load_patches(config: RunConfig) -> list[Patch]:
    source = RepoHandle(config.source)
    patches: list[Patch] = []
    for sha in config.patch_shas:
        patches.append(patchmodel.load_patch(source, sha, config.c_lines))
    for file in config.patch_files:
        try:
            text = Path(file).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read patch file {file}: {exc}") from exc
        try:
            patch = patchmodel.parse_patch(text, config.c_lines)
        except PatchError as exc:
            raise ConfigError(f"bad patch file {file}: {exc}") from exc
        patch.label = Path(file).name
        patches.append(patch)
    return patches


def _scan_one_hunk(ctx: _TargetCtx, hunk, config: RunConfig):
    outcome = search.collect_candidates(
        ctx.cache, hunk, config.params, config.c_lines, config.max_candidates
    )
    return [verdict.judge_candidate(c, hunk, config.params) for c in outcome.candidates]


def run_detect(config: RunConfig) -> tuple[int, ScanReport]:
    """Execute the full pipeline and write the report files."""
    patches = _load_patches(config)
    targets = _open_targets(config)

    rows: list[ResultRow] = []
    for patch in patches:
        for ctx in targets:
            if ctx.cache is None:
                rows.append(
                    ResultRow(
                        patch=patch.label, target=ctx.name,
                        status=Status.CONTEXT_NOT_FOUND.value, conf=0.0,
                        note=f"target unusable: {ctx.error}",
                    )
                )
                continue
            notes: list[str] = []
            hunk_judgments = []
            for hi, hunk in enumerate(patch.hunks):
                try:
                    hunk_judgments.append(_scan_one_hunk(ctx, hunk, config))
                except Exception as exc:
                    log.warning(
                        "scan failed for %s hunk %d in %s: %s",
                        patch.label, hi, ctx.name, exc,
                    )
                    notes.append(f"hunk {hi}: {exc}")
                    hunk_judgments.append([])
            rows.append(
                _row_for(patch, ctx, verdict.aggregate(hunk_judgments), notes)
            )

    scan = ScanReport(
        tool_version=__version__,
        params={
            "r": config.params.r,
            "t": config.params.t,
            "ks_threshold": config.params.ks_threshold,
            "context_lines": config.c_lines,
            "max_candidates": config.max_candidates,
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
        targets=[{"name": c.name, "path": c.path, "rev": c.rev} for c in targets],
        results=rows,
    )
    _write_outputs(scan, config.out)
    code = 1 if any(r.status == Status.VULNERABLE.value for r in rows) else 0
    return code, scan


def _row_for(
    patch: Patch, ctx: _TargetCtx, v: verdict.Verdict, notes: list[str]
) -> ResultRow:
    row = ResultRow(
        patch=patch.label,
        target=ctx.name,
        status=v.status.value,
        conf=round(v.conf, 6),
        note="; ".join(notes),
    )
    if v.winning is not None:
        cand = v.winning.candidate
        row.path = cand.path
        row.span = cand.span
        row.s_del = _round(v.winning.s_del)
        row.s_add = _round(v.winning.s_add)
        if cand.paired_up is not None:
            row.ctx_sim_up = _round(cand.paired_up.ctx_sim)
        if cand.paired_down is not None:
            row.ctx_sim_down = _round(cand.paired_down.ctx_sim)
    if v.status is Status.FIXED:
        try:
            row.delay = delay.fix_delay(
                ctx.cache.repo, ctx.cache.rev, patch.committed_at, v
            )
        except gitio.GitError as exc:
            log.warning("delay lookup failed for %s: %s", ctx.name, exc)
            row.note = "; ".join(filter(None, [row.note, f"delay: {exc}"]))
    return row


def _round(v: float | None) -> float | None:
    return round(v, 6) if v is not None else None


def _write_outputs(scan: ScanReport, out: str) -> None:
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(report.emit_report(scan, "json"), encoding="utf-8")
    csv_path = out_path.with_suffix(".csv")
    csv_path.write_text(report.emit_report(scan, "csv"), encoding="utf-8")
    delays = [
        float(r.delay.delay_days)
        for r in scan.results
        if r.delay is not None and r.delay.delay_days is not None
    ]
    if delays:
        series = report.emit_cdf(delays, "delay_days")
        report.write_cdf_csv(series, str(out_path.parent / "delay_cdf.csv"))


# ---------------------------------------------------------------------------
# sweep-r


def _parse_r_spec(spec: str) -> list[float]:
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, step = (float(p) for p in parts)
            if step <= 0:
                raise ValueError("step must be positive")
            values = []
            v = start
            while v <= stop + 1e-9:
                values.append(round(v, 10))
                v += step
            return values
    except ValueError as exc:
        raise ConfigError(f"bad --r spec {spec!r}: {exc}") from exc
    raise ConfigError(f"bad --r spec {spec!r}: use START:STOP:STEP or a single value")


def _load_pairs(pairs_dir: str) -> list[tuple[list[str], list[str]]]:
    """Fragment pairs from <stem>.a.txt / <stem>.b.txt files (one statement
    per line, blank lines ignored)."""
    root = Path(pairs_dir)
    if not root.is_dir():
        raise ConfigError(f"not a directory: {pairs_dir}")

    def fragment(path: Path) -> list[str]:
        return [
            line.strip()
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]

    pairs = []
    for a_file in sorted(root.glob("*.a.txt")):
        b_file = a_file.with_name(a_file.name[:-6] + ".b.txt")
        if not b_file.exists():
            raise ConfigError(f"missing counterpart for {a_file.name}")
        a, b = fragment(a_file), fragment(b_file)
        if a and b:
            pairs.append((a, b))
    if not pairs:
        raise ConfigError(f"no fragment pairs found under {pairs_dir}")
    return pairs


def run_sweep(pairs_dir: str, r_spec: str, out: str) -> int:
    pairs = _load_pairs(pairs_dir)
    r_values = _parse_r_spec(r_spec)
    swept = reward_sweep(pairs, r_values)
    series = [
        (r, report.emit_cdf(scores, f"r={r}")) for r, scores in swept
    ]
    report.write_rsweep_csv(series, out)
    print(f"swept {len(pairs)} pairs over r={r_values} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", help="source (upstream) repository path")
    p.add_argument("--patch", action="append", help="patch commit sha (repeatable)")
    p.add_argument(
        "--patch-file", action="append", help="unified diff file (repeatable)"
    )
    p.add_argument("--manifest", help="file with one patch sha per line")
    p.add_argument(
        "--target", action="append", help="target repo as path[,rev] (repeatable)"
    )
    p.add_argument("--r", type=float, help="positional reward factor (default 0.95)")
    p.add_argument("--t", type=float, help="decision threshold (default 0.4)")
    p.add_argument(
        "--ks-threshold", type=float, help="key statement gate (default 0.25)"
    )
    p.add_argument(
        "--context-lines", type=int, help="context statements per side (default 5)"
    )
    p.add_argument(
        "--max-candidates", type=int,
        help="candidate contexts kept per side, 0 = unlimited (default 10)",
    )
    p.add_argument(
        "--jobs", type=int, choices=(1,),
        help="scans run on one thread; only 1 is accepted",
    )
    p.add_argument("--out", help="report path (default report.json)")
    p.add_argument("--config", help="flat key=value config file; flags win")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="forkscan",
        description="Check forked repositories for unapplied security patches.",
    )
    parser.add_argument("--version", action="version", version=f"forkscan {__version__}")
    parser.add_argument(
        "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="scan targets for patch presence")
    _add_detect_flags(detect)

    sweep = sub.add_parser("sweep-r", help="score fragment pairs across reward factors")
    sweep.add_argument("--pairs", required=True, help="directory of *.a.txt/*.b.txt")
    sweep.add_argument("--r", required=True, help="START:STOP:STEP or single value")
    sweep.add_argument("--out", default="rsweep_cdf.csv")

    gen = sub.add_parser("gen-fixtures", help="build the planted-clone corpus")
    gen.add_argument("--spec", help="corpus spec JSON (default: built-in corpus)")
    gen.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    try:
        if args.command == "detect":
            code, scan = run_detect(_build_config(args))
            summary = scan.summary()
            for target in sorted(summary):
                counts = summary[target]
                print(
                    f"{target}: {counts['Vulnerable']} vulnerable, "
                    f"{counts['Fixed']} fixed, "
                    f"{counts['ContextNotFound']} context-not-found"
                )
            return code
        if args.command == "sweep-r":
            return run_sweep(args.pairs, args.r, args.out)
        if args.command == "gen-fixtures":
            if args.spec:
                try:
                    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError) as exc:
                    raise ConfigError(f"bad corpus spec {args.spec}: {exc}") from exc
            else:
                spec = fixturegen.default_corpus_spec()
            try:
                corpus = fixturegen.gen_fixtures(spec, args.out)
            except fixturegen.FixtureError as exc:
                raise ConfigError(str(exc)) from exc
            print(f"built {len(corpus['cases'])} cases under {args.out}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (gitio.GitError, PatchError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
