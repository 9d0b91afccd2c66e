"""Run `forkscan detect` with every pipeline module traced.

Usage: python3 traced_detect.py TRACE_JSON detect [detect flags...]

forkscan must be importable (PYTHONPATH). The spans and counters of the
scan are written to TRACE_JSON when it ends; the exit code is forkscan's,
or 4 when a traced function escaped the wrapping.
"""

from __future__ import annotations

import sys
import time

import tracer


def main(argv: list[str]) -> int:
    trace_out, detect_args = argv[0], argv[1:]
    recorder = tracer.Tracer()
    try:
        replaced = tracer.install(recorder)
    except tracer.CoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    from forkscan import cli

    started = time.perf_counter()
    try:
        code = cli.main(detect_args)
    finally:
        recorder.dump(
            trace_out,
            {"replaced": replaced, "main_s": time.perf_counter() - started},
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
