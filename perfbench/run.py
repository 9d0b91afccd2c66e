"""Scan benchmark for forkscan: seeded workloads, end-to-end metrics, traced run.

    python3 perfbench/run.py --workload corpus-cross --seed 1 --seconds 42 --trace 0

Run from anywhere inside a checkout that holds `src/forkscan`. A run is a
sequence of rounds, until the next round would end more than half a round
after `--seconds` (but at least MIN_ROUNDS of them). Each round builds the workload from the seed
SETUP_PER_ROUND times (each build is timed, and every build must yield the
same git tree ids), then scans the last build with an unmodified
`forkscan detect --jobs JOBS` process as one closed-loop batch. Every
report is checked against the generator's truth and digested; all digests
of one run must agree. With `--trace 1` each untraced scan is paired with a
scan whose pipeline functions are wrapped by `tracer.py`, and per-layer
metrics are reported.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it give quartiles, run counts, the environment and
the dominant layer. See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PER_ROUND = 5
MIN_ROUNDS = 2
# One scan thread: with two, a thread waiting for a git child needs the GIL
# back from one running the similarity kernel, so git calls take several
# times longer and their cost follows the scheduler rather than forkscan.
JOBS = 1
FAILURE_NOTES = ("hunk ", "target unusable", "delay: ")
STATUSES = ("Vulnerable", "Fixed", "ContextNotFound")

END_TO_END = {
    "scan_s": "s",
    "pairs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Scan:
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    failed: int = 0
    digest: str = ""
    misses: list[str] = field(default_factory=list)  # planted pairs missed
    known: list[str] = field(default_factory=list)  # missed as deletion_delay predicts
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


def check_manifest(per_layer: dict[str, str]) -> str:
    """Mismatch between BENCHMARK.json and the metrics produced here."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if declared != END_TO_END:
        return f"BENCHMARK.json end_to_end {declared} != {END_TO_END}"
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if declared != per_layer:
        diff = sorted(set(declared.items()) ^ set(per_layer.items()))
        return f"BENCHMARK.json per_layer differs from the harness: {diff}"
    return ""


# ---------------------------------------------------------------------------
# One scan


def _detect_args(built, out: str) -> list[str]:
    args = ["detect", "--source", built.source, "--manifest", "manifest.txt"]
    for target in built.targets:
        args += ["--target", target]
    return args + ["--jobs", str(JOBS), "--out", out]


def run_scan(built, traced: bool, serial: int) -> Scan:
    """One forkscan process over the whole workload, started by spawn.py and
    timed with its git children: wall clock, user+sys CPU and the tree's
    largest max RSS."""
    out = f"out-{serial}/report.json"
    trace_file = built.root / f"trace-{serial}.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced_detect.py"), str(trace_file)]
    else:
        cmd = [sys.executable, "-m", "forkscan.cli"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    stderr = built.root / f"stderr-{serial}.txt"
    with open(stderr, "wb") as err:
        # A session of its own, so that an interrupted run can stop the scan
        # and its git children along with the launcher.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), *cmd, *_detect_args(built, out)],
            cwd=built.root, env=env, stdout=subprocess.PIPE, stderr=err,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate()
        except BaseException:
            stop_group(proc)
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    cost = json.loads(stdout)
    scan = Scan(traced, cost["wall"], cost["cpu"], cost["rss_mb"])
    # 0 and 1 are forkscan's exit codes for a finished scan; an uncaught
    # exception also exits with 1, but writes no report.
    if cost["code"] not in (0, 1) or not (built.root / out).is_file():
        tail = stderr.read_text(errors="replace")[-800:]
        scan.problems.append(f"detect exited {cost['code']}: {tail}")
        return scan
    check_report(built, built.root / out, scan)
    if traced:
        scan.trace = json.loads(trace_file.read_text(encoding="utf-8"))
        trace_file.unlink()
    shutil.rmtree(built.root / f"out-{serial}")
    return scan


def stop_group(proc: subprocess.Popen) -> None:
    """Kill the process group `proc` leads and wait until all of it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def check_report(built, report_path: Path, scan: Scan) -> None:
    """Rows, failure notes, planted truth and the digest of one report."""
    digest = hashlib.sha256()
    for path in sorted(report_path.parent.iterdir()):
        text = path.read_text(encoding="utf-8").replace(str(built.root), ".")
        digest.update(path.name.encode() + b"\0" + text.encode())
    scan.digest = digest.hexdigest()

    report = json.loads(report_path.read_text(encoding="utf-8"))
    rows = {(r["patch"], r["target"]): r for r in report["results"]}
    if len(report["results"]) != built.pairs or len(rows) != built.pairs:
        scan.problems.append(f"{len(report['results'])} rows for {built.pairs} pairs")
    for row in report["results"]:
        if row["status"] not in STATUSES:
            scan.problems.append(f"bad status {row['status']!r}")
        if any(note.startswith(FAILURE_NOTES) for note in row["note"].split("; ")):
            scan.failed += 1
    for truth in built.planted:
        row = rows.get((truth.patch, truth.target))
        label = f"{truth.patch[:10]} x {truth.target}"
        if row is None:
            scan.misses.append(f"{label}: no row")
            continue
        got = (row["status"], row["path"], row["delay"])
        if got == (truth.status, truth.path, truth.delay):
            continue
        if got == (truth.status, truth.path, truth.deletion_delay):
            scan.known.append(
                f"{label}: applied deletion attributed to "
                f"{row['delay']['true_fix'][:10]}, the backport is "
                f"{truth.delay['true_fix'][:10]}"
            )
        else:
            scan.misses.append(
                f"{label}: got {got}, planted {truth.status} {truth.path} {truth.delay}"
            )


# ---------------------------------------------------------------------------
# Statistics and output


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    def git(*args: str) -> str:
        proc = subprocess.run(["git", *args], capture_output=True, text=True)
        return proc.stdout.strip()

    threads = git("config", "--get", "grep.threads")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git": git("--version").removeprefix("git version "),
        "jobs": JOBS,
        "grep_threads": threads or f"default ({os.cpu_count()} online CPUs)",
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "forkscan" / "cli.py").is_file():
        print(f"error: no forkscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    per_layer = layers.units()
    mismatch = check_manifest(per_layer)
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running scan is stopped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return measure(args, work, workloads, layers, per_layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(args, work: Path, workloads, layers, per_layer: dict[str, str]) -> int:
    problems: list[str] = []
    modes = (False, True) if args.trace else (False,)
    setup_times: list[float] = []
    trees: list[dict[str, str]] = []
    scans: list[Scan] = []

    def build(timed: bool):
        """SETUP_PER_ROUND fresh builds from the seed; all but the last are
        removed again. Returns the last."""
        for _ in range(SETUP_PER_ROUND):
            started = time.perf_counter()
            built = workloads.build(args.workload, args.seed, work / f"build-{len(trees)}")
            (built.root / "manifest.txt").write_text("\n".join(built.patches) + "\n")
            if timed:
                setup_times.append(time.perf_counter() - started)
            trees.append(built.trees)
            if len(trees) % SETUP_PER_ROUND:
                shutil.rmtree(built.root)
        return built

    # One untimed round of builds first, so that no timed one pays for a
    # cold start of git.
    first = build(timed=False)
    shutil.rmtree(first.root)

    # Timed rounds: fresh builds, then one scan per mode of the last build,
    # until the next round would end more than half a round after
    # --seconds, so that a run measures about --seconds on average whatever
    # a round takes.
    started = time.perf_counter()
    rounds = 0
    while True:
        built = build(timed=True)
        for traced in modes:
            scans.append(run_scan(built, traced, len(scans)))
        shutil.rmtree(built.root)
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds / 2 > args.seconds:
            break
    if any(t != trees[0] for t in trees):
        problems.append("builds from one seed gave different git trees")

    for scan in scans:
        problems.extend(scan.problems)
        problems.extend(scan.misses)
    digests = {s.digest for s in scans}
    if len(digests) != 1:
        problems.append(f"reports of one workload and seed differ: {len(digests)} digests")

    plain = [s for s in scans if not s.traced]
    series = {
        "scan_s": [s.wall for s in plain],
        "pairs_per_s": [first.pairs / s.wall for s in plain],
        "cpu_s": [s.cpu for s in plain],
        "peak_rss_mb": [s.rss_mb for s in plain],
        "setup_s": setup_times,
    }
    attempted = first.pairs * len(scans)
    failed = sum(s.failed for s in scans)
    planted = len(first.planted) * len(scans)
    misses = sum(len(s.misses) + len(s.known) for s in scans)

    print(f"workload {args.workload}, seed {args.seed}: {first.pairs} pairs "
          f"({len(first.patches)} patches x {len(first.targets)} targets), "
          f"{len(plain)} untraced scans, {len(scans) - len(plain)} traced scans")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"trees {json.dumps(first.trees, sort_keys=True)}")
    print(f"report digest {sorted(digests)[0] if digests else '-'}")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} rows)")
    print(f"planted_miss {misses / planted:.4f} ({misses} of {planted} planted pairs)")
    for line in sorted({k for s in scans for k in s.known}):
        print(f"  known defect: {line}")
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        print(f"{name} median {med:.4f} {END_TO_END[name]} "
              f"(q1 {q1:.4f}, q3 {q3:.4f}, n {len(values)})")

    if args.trace:
        result_metrics = report_layers(args.workload, scans, series, layers, per_layer)
        if not result_metrics:
            problems.append("no traced scan completed")
    else:
        result_metrics = {
            name: {"value": statistics.median(v), "unit": END_TO_END[name]}
            for name, v in series.items()
        }

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


def report_layers(workload: str, scans: list[Scan], series: dict, layers,
                  per_layer: dict[str, str]) -> dict:
    """Per-layer metrics as medians over the traced scans; prints them all
    and the dominant layer."""
    traced = [s for s in scans if s.traced and s.trace is not None]
    if not traced:
        return {}
    per_scan = [layers.analyse(s.trace, s.wall) for s in traced]
    metrics = {
        name: statistics.median(m[name] for m, _ in per_scan)
        for name in per_layer if not name.startswith("trace.")
    }
    metrics["trace.scan_s"] = statistics.median(s.wall for s in traced)
    metrics["trace.overhead_s"] = metrics["trace.scan_s"] - statistics.median(series["scan_s"])
    for name in per_layer:
        print(f"  {name} {metrics[name]:.6g} {per_layer[name]}")
    print(layers.dominance(workload, per_scan[len(per_scan) // 2][1]))
    return {n: {"value": metrics[n], "unit": per_layer[n]} for n in per_layer}


if __name__ == "__main__":
    sys.exit(main())
