"""sha256 of a few seeded training steps, to compare two checkouts bit for bit.

    OPENBLAS_NUM_THREADS=1 python3 scripts/train_hash.py

Run from the root of a checkout: it imports the library from ``src/`` and
the benchmark's data, model and step from ``perfbench/``. For each of two
configurations, 64x64 with CIM off and 32x32 with CIM on, it trains a fresh
benchmark model for ``STEPS`` steps of batch 8 at ``SEED``, predicts one
batch of the shifted domain and prints one JSON line. Its ``sha256`` covers the raw bytes
of every step's loss and CIM weights, every parameter after training and
the shifted-domain nucleus probabilities. Bytes are hashed, not shapes, so a
parameter whose layout changes but whose values do not hashes the same.
Two runs or two checkouts that print the same lines computed bit-identical
results.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness as H  # noqa: E402
from trace import NoTrace  # noqa: E402

SEED = 101
STEPS = 4
BATCH = 8
CONFIGS = ((64, False), (32, True))  # (image size, CIM on)


def train_hash(size: int, use_cim: bool) -> str:
    x, y = H.make_images(SEED, 1, BATCH * STEPS, size, "train")
    xt, _ = H.make_images(SEED, 2, BATCH, size, "shift")
    model, tr = H.Model(size), NoTrace()
    h = hashlib.sha256()
    for k in range(STEPS):
        batch = slice(k * BATCH, (k + 1) * BATCH)
        loss, weights, _, _ = H.train_step(model, x[batch], y[batch], use_cim, tr)
        h.update(np.float64(loss).tobytes())
        h.update(weights.w.tobytes())
    for p in model.params():
        h.update(p.data.tobytes())
    h.update(H.predict(model, xt, tr)[0].tobytes())
    return h.hexdigest()


def main() -> None:
    for size, use_cim in CONFIGS:
        print(json.dumps({"size": size, "cim": use_cim, "sha256": train_hash(size, use_cim)}))


if __name__ == "__main__":
    main()
