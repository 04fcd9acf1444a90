"""Minor page faults and wall time per ``train_conv`` step, from getrusage.

    OPENBLAS_NUM_THREADS=1 python3 scripts/step_faults.py --seed 101 --steps 64

Run from the root of a checkout: it imports the library from ``src/`` and
the benchmark's data, model and step from ``perfbench/``. It builds the
``train_conv`` workload (64x64 images, batch 8, CIM off), runs one warm-up
round of 8 steps, then times ``--steps`` steps and prints one JSON line with
the median step time, the median minor page faults per step and the
process's peak resident set size (``maxrss_mb``, from ``ru_maxrss``). One
more step then runs under tracemalloc: ``traced_peak_mib`` is its peak of
traced memory above what was traced at its start.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness as H  # noqa: E402
from trace import NoTrace  # noqa: E402

SIZE, BATCH, BATCHES = 64, 8, 8


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--steps", type=int, default=64)
    args = ap.parse_args()
    if args.steps < 1:
        ap.error(f"--steps must be at least 1, got {args.steps}")

    x, y = H.make_images(args.seed, 1, BATCH * BATCHES, SIZE, "train")
    batches = [(x[i:i + BATCH], y[i:i + BATCH]) for i in range(0, len(x), BATCH)]
    model, tr = H.Model(SIZE), NoTrace()
    for xb, yb in batches:
        H.train_step(model, xb, yb, False, tr)
    ms, faults = [], []
    for k in range(args.steps):
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        H.train_step(model, *batches[k % BATCHES], False, tr)
        ms.append((time.perf_counter() - t0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    maxrss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        H.train_step(model, *batches[args.steps % BATCHES], False, tr)
        traced_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    print(json.dumps({"seed": args.seed, "steps": args.steps, "step_ms_p50": round(statistics.median(ms), 2),
                      "minflt_per_step_p50": statistics.median(faults),
                      "minflt_per_step_mean": round(statistics.fmean(faults), 1),
                      "maxrss_mb": maxrss_mb, "traced_peak_mib": round(traced_peak / 2**20, 1)}))


if __name__ == "__main__":
    main()
