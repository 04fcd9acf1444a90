"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, for two steps on 16x16 images, and
shows that each correctness check passes on the library's output and fails
when fed a deliberately corrupted gradient, weight vector, objective value,
loss history, probability map or mask. Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from causalseg import cim, losses  # noqa: E402
from causalseg import tensor as T  # noqa: E402
from causalseg.seeding import generator  # noqa: E402
from causalseg.tensor import Tensor  # noqa: E402

import checks as C  # noqa: E402
import harness as H  # noqa: E402
import worker as W  # noqa: E402

SEED, SIZE = 5, 16
TINY = dict(size=SIZE, batch=4, batches=1, steps=2, test_images=8, eval_batch=4)


def main() -> int:
    failures = []

    def expect(what, holds):
        print(("ok   " if holds else "FAIL ") + what)
        if not holds:
            failures.append(what)

    for name in W.WORKLOADS:
        for trace in (False, True):
            r = W.run(name, SEED, 0, trace, TINY)
            expect(f"{name} trace={int(trace)}: two units, all checks pass",
                   r["correct"] and r["failed"] == 0 and r["attempted"] == 2)

    model = H.Model(SIZE)
    x, y = H.make_images(SEED, 1, 4, SIZE, "train")
    n = x.shape[0]
    first, weights, feats, _ = H.train_step(model, x, y, True, W.NOTRACE)
    second = H.train_step(model, x, y, True, W.NOTRACE)[0]

    pairs = C.gradient_pairs(model, x, y, weights, generator(SEED, 3))
    expect("gradients: tape agrees with central differences", C.gradients_agree(pairs))
    k = max(range(len(pairs)), key=lambda j: abs(pairs[j][0]))
    bad = list(pairs)
    bad[k] = (pairs[k][0] * 1.1, pairs[k][1])
    expect("gradients: a gradient off by 10% fails", not C.gradients_agree(bad))

    expect("training: the loss fell over one step", C.loss_fell([first], [second]))
    expect("training: a rising loss fails", not C.loss_fell([second], [first]))

    expect("simplex: learned weights pass", C.on_simplex(weights.w))
    drift = weights.w.copy()
    drift[0] += 1e-6
    expect("simplex: weights summing to n + 1e-6 fail", not C.on_simplex(drift))
    negative = weights.w.copy()
    negative[0] -= 1.5
    negative[1] += 1.5
    expect("simplex: a negative weight fails", not C.on_simplex(negative))

    banks = cim.make_banks(feats.shape[1], cim.CimConfig())
    learned = C.closed_form_objective(feats, banks, weights.w)
    uniform = C.closed_form_objective(feats, banks, np.ones(n))
    expect("objective: library equals the closed form",
           C.objective_matches(cim.independence_objective(feats, banks, weights), learned))
    other = weights.w * np.exp(0.1 * generator(SEED, 4).standard_normal(n))
    other = cim.SampleWeights(n * other / other.sum(), n)
    expect("objective: the library at other weights fails",
           not C.objective_matches(cim.independence_objective(feats, banks, other), learned))
    expect("CIM weights: learned no worse than uniform", C.no_worse_than_uniform(learned, uniform))
    point = np.zeros(n)
    point[0] = n
    expect("CIM weights: all weight on one sample fails",
           not C.no_worse_than_uniform(C.closed_form_objective(feats, banks, point), uniform))

    p, pred = H.predict(model, x, W.NOTRACE)
    with T.Tape():
        taped = model.forward(Tensor(x), W.NOTRACE)[0].data[:, 1]
    expect("forward: taped equals tape-free", C.forward_equal(taped, p))
    alone = H.predict(model, x[:1], W.NOTRACE)[0][0]
    expect("forward: an image alone equals it in its batch", C.forward_equal(alone, p[0]))
    nudged = p.copy()
    nudged[0, 0, 0] += 1e-9
    expect("forward: a map off by 1e-9 fails", not C.forward_equal(nudged, p))

    own = C.confusion_metrics(pred, y)
    expect("metrics: library equals confusion counts", C.metrics_match((losses.miou(pred, y), losses.dsc(pred, y)), own))
    flipped = pred.copy()
    flipped[0, 0, 0] ^= 1
    expect("metrics: a mask with one pixel flipped fails",
           not C.metrics_match((losses.miou(flipped, y), losses.dsc(flipped, y)), own))
    expect("background: the true mask beats all-background", C.beats_background(losses.miou(y, y), [y]))
    expect("background: an all-background mask fails",
           not C.beats_background(losses.miou(np.zeros_like(y), y), [y]))

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
