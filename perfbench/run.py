"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload train_cim --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout of the repository. Each workload runs in
worker processes of its own (``worker.py``), single-threaded BLAS.

Untraced, set-up is timed in three fresh processes on the library, from
process start to the first timed unit, and ``setup_s`` is their median. The
last of them goes on to the timed phase in lockstep with a fourth worker that
runs the same workload and seed on ``reference/causalseg``, a frozen copy of
the library: the two take turns, one unit each, never at the same time.
``step_vs_ref`` is the median over units of the library's unit time divided
by the copy's time for the same unit. Traced (``--trace 1``), one process on
the library reports the per-layer metrics.

The last line of standard output is the result; on any failure nothing is
printed there and the exit code is not 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("train_cim", "train_conv", "eval_shift")
SETUP_RUNS = 3
TIMEOUT_S = 170   # for the whole run, set-up processes included


class WorkerError(Exception):
    pass


def _ready(proc) -> list[str]:
    line = proc.stdout.readline().split()
    if not line or line[0] != "ready":
        raise WorkerError(f"worker exited with code {proc.wait()} before it was ready")
    return line


def _unit_time(proc) -> float:
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "t":
        raise WorkerError(f"worker exited with code {proc.wait()} during the timed phase")
    return float(line[1])


def _send(proc, word: str) -> None:
    proc.stdin.write(word + "\n")
    proc.stdin.flush()


def lockstep(cmd, lib_env, ref_env, seconds: float, procs: list) -> tuple[float, dict, list, list]:
    """Set up the library worker, then the reference worker, and let them take
    turns unit by unit, in whole rounds, until ``seconds`` have passed and the
    fixed part is done. Returns (library set-up seconds, library result,
    library unit times, reference unit times)."""
    def start(env, extra):
        proc = subprocess.Popen(cmd + ["--lockstep"] + extra, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True, env=env)
        procs.append(proc)
        return proc

    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    lib = start(lib_env, [])
    ready = _ready(lib)
    setup = float(ready[1]) - t0
    per_round, min_units = int(ready[2]), int(ready[3])
    ref = start(ref_env, ["--reference"])
    _ready(ref)
    lib_times, ref_times = [], []
    begin = time.monotonic()
    while len(lib_times) < min_units or time.monotonic() - begin < seconds:
        for _ in range(per_round):
            for proc, times in ((lib, lib_times), (ref, ref_times)):
                _send(proc, "go")
                times.append(_unit_time(proc))
    for proc in (lib, ref):
        _send(proc, "end")
        proc.stdin.close()
    out = lib.stdout.read().splitlines()
    if lib.wait() != 0 or ref.wait() != 0 or not out:
        raise WorkerError(f"workers exited with codes {lib.returncode} and {ref.returncode}")
    return setup, json.loads(out[-1]), lib_times, ref_times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    here = Path(__file__).resolve().parent
    src, ref_src = here.parent / "src", here / "reference"
    for lib in (src, ref_src):
        if not (lib / "causalseg" / "__init__.py").is_file():
            print(f"perfbench: no library sources at {lib}; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    base = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    lib_env, ref_env = dict(base, PYTHONPATH=str(src)), dict(base, PYTHONPATH=str(ref_src))
    cmd = [sys.executable, str(here / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]

    procs: list[subprocess.Popen] = []
    timer = threading.Timer(TIMEOUT_S, lambda: [p.kill() for p in procs])
    timer.start()
    try:
        if args.trace:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=lib_env)
            procs.append(proc)
            out = proc.stdout.read().splitlines()
            if proc.wait() != 0 or not out:
                raise WorkerError(f"worker exited with code {proc.returncode}")
            result = json.loads(out[-1])
        else:
            setups = []
            for _ in range(SETUP_RUNS - 1):
                t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
                proc = subprocess.Popen(cmd + ["--setup-only"], stdout=subprocess.PIPE, text=True, env=lib_env)
                procs.append(proc)
                setups.append(float(_ready(proc)[1]) - t0)
                if proc.wait() != 0:
                    raise WorkerError(f"set-up worker exited with code {proc.returncode}")
            setup, result, lib_times, ref_times = lockstep(cmd, lib_env, ref_env, args.seconds, procs)
            setups.append(setup)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            ratio = statistics.median(a / b for a, b in zip(lib_times, ref_times))
            result["metrics"]["step_vs_ref"] = {"value": ratio, "unit": "ratio"}
    except (WorkerError, OSError, ValueError) as e:
        expired = not timer.is_alive()
        print(f"perfbench: {args.workload}: " + (f"did not finish within {TIMEOUT_S} s" if expired else str(e)),
              file=sys.stderr)
        return 1
    finally:
        timer.cancel()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
