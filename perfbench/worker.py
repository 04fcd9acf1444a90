"""One workload in a process of its own: set-up, the timed phase, the checks.

When set-up ends it prints ``ready <t> <round> <min_units>``, t being
CLOCK_MONOTONIC in seconds, so that ``run.py`` can time set-up from process
start; ``round`` is the number of units in a round and ``min_units`` the
units every run makes. Unless ``--setup-only`` is given it then runs the
timed phase and the checks and prints one JSON line with the result.

With ``--lockstep`` the timed phase is paced from standard input: a ``go``
line before each unit, which the worker answers with ``t <seconds>`` when the
unit is done, and ``end`` in place of the first ``go`` of a round to stop.
``run.py`` runs two such workers in turn, one on the library and one on the
frozen copy under ``reference/``. With ``--reference`` the worker stops after
the timed phase: the copy's outputs are not checked.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from causalseg import cim
from causalseg import tensor as T
from causalseg.errors import CausalSegError
from causalseg.seeding import generator
from causalseg.tensor import Tensor

import checks as C
import harness as H
from trace import NoTrace, Tracer

# ``steps``: train workloads train the model that ``miou_shift`` scores for
# exactly this many steps, however long the timed phase runs; eval_shift
# trains its model for this many steps (CIM off) during set-up. ``batches``
# training batches of ``batch`` images make one round.
WORKLOADS = {
    # CIM on at CimConfig() defaults; learn_weights is most of a step.
    "train_cim": dict(kind="train", size=32, batch=8, batches=4, steps=24, cim=True,
                      test_images=64, eval_batch=16),
    # The "without CIM" ablation on 4x the pixels: conv/norm blocks and backward.
    "train_conv": dict(kind="train", size=64, batch=8, batches=8, steps=128, cim=False,
                       test_images=64, eval_batch=16),
    # Tape-free forward plus metrics at a larger batch; no tape, no backward.
    "eval_shift": dict(kind="eval", size=32, batch=8, batches=4, steps=24, cim=False,
                       test_images=128, eval_batch=32),
}
OUT_DIR = Path(__file__).resolve().parent / "out"
NOTRACE = NoTrace()


def _batches(x, y, size):
    return [(x[i:i + size], y[i:i + size]) for i in range(0, len(x), size)]


def setup(cfg, seed):
    """Data, model and warm-up; returns (model, train batches, test batches, set-up loss history)."""
    x, y = H.make_images(seed, 1, cfg["batch"] * cfg["batches"], cfg["size"], "train")
    xt, yt = H.make_images(seed, 2, cfg["test_images"], cfg["size"], "shift")
    train, test = _batches(x, y, cfg["batch"]), _batches(xt, yt, cfg["eval_batch"])
    model = H.Model(cfg["size"])
    history = []
    if cfg["kind"] == "train":
        for xb, yb in train:  # warm-up round, then start again from the initial weights
            H.train_step(model, xb, yb, cfg["cim"], NOTRACE)
        model = H.Model(cfg["size"])
    else:
        history = [H.train_step(model, *train[k % len(train)], False, NOTRACE)[0] for k in range(cfg["steps"])]
        for xb, yb in test:  # warm-up round
            H.eval_batch(model, xb, yb, NOTRACE)
    return model, train, test, history


def cim_counts(feats, weights, tr) -> None:
    """Objective at the learned weights over that at uniform weights, and the
    nodes one ``objective_graph`` call records under a tape of our own."""
    cfg = cim.CimConfig()
    n, m = feats.shape
    banks = cim.make_banks(m, cfg)
    uniform = cim.independence_objective(feats, banks, cim.SampleWeights.uniform(n))
    tr.count("cim.obj_ratio", cim.independence_objective(feats, banks, weights) / uniform)
    lifted = [cim.rff_map(feats[:, k], banks[k]) for k in range(m)]
    with T.Tape() as tape:
        cim.objective_graph(lifted, Tensor(weights.w, requires_grad=True))
    tr.count("cim.objective_nodes", len(tape))


def probe(cfg, model, xb, yb, out, tracer) -> None:
    """After a traced unit: the CIM counts, and the layers the unit does not call."""
    with tracer.span("probe"):
        if cfg["kind"] == "eval":
            _, weights, feats, _ = H.train_step(model, xb, yb, True, tracer, update=False)
        elif cfg["cim"]:
            weights, feats = out[1], out[2]
        else:
            feats, weights = H.cim_weights(out[3], tracer)
        cim_counts(feats, weights, tracer)


def round_size(cfg, train, test) -> tuple[int, int]:
    """(units in a round, units every run makes)."""
    if cfg["kind"] == "train":
        return len(train), cfg["steps"]
    return len(test), len(test)


def timed_phase(cfg, model, train, test, seconds, tracer, lockstep=False):
    """Whole rounds of units (train steps or eval batches) until ``seconds``
    have passed and, for training, ``cfg['steps']`` steps are done, or, in
    lockstep, until standard input says ``end``. With a tracer, every other
    unit is traced and the rest time the untraced cost."""
    train_kind = cfg["kind"] == "train"
    units = train if train_kind else test
    min_units = round_size(cfg, train, test)[1]
    rec = dict(times=[], traced=[], outs=[], failed=0, snapshot=None)
    start = time.perf_counter()
    i = 0

    def another_round():
        if lockstep:
            return sys.stdin.readline() == "go\n"
        return i < min_units or time.perf_counter() - start < seconds

    while another_round():
        for j, (xb, yb) in enumerate(units):
            if lockstep and j and sys.stdin.readline() != "go\n":
                raise RuntimeError("lockstep: a round was cut short")
            tr = tracer if tracer is not None and i % 2 == 0 else NOTRACE
            t0 = time.perf_counter()
            try:
                with tr.span("unit"):
                    if train_kind:
                        out = H.train_step(model, xb, yb, cfg["cim"], tr)
                    else:
                        out = H.eval_batch(model, xb, yb, tr)
            except CausalSegError as e:
                print(f"unit {i} failed: {e}", file=sys.stderr)
                rec["failed"] += 1
                out = None
            dt = time.perf_counter() - t0
            (rec["traced"] if tr is tracer else rec["times"]).append(dt)
            if lockstep:
                print(f"t {dt!r}", flush=True)
            if out is None:
                rec["outs"].append(None)
            else:  # the checks need no bottleneck features, and eval maps of the first round only
                rec["outs"].append(out[:3] if train_kind else out if i < len(units) else out[2:])
            if tr is tracer and out is not None:
                tracer.replay()
                probe(cfg, model, xb, yb, out, tracer)
            i += 1
            if i == min_units:  # the end of the part every run makes alike
                rec["snapshot"] = model.state()
                rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rec


def run(name: str, seed: int, seconds: float, trace: bool, cfg: dict | None = None,
        on_ready=None, lockstep: bool = False, reference: bool = False) -> dict | None:
    cfg = dict(WORKLOADS[name], **(cfg or {}))
    model, train, test, history = setup(cfg, seed)
    if on_ready is not None:
        on_ready(*round_size(cfg, train, test))
    tracer = Tracer() if trace else None
    rec = timed_phase(cfg, model, train, test, seconds, tracer, lockstep)
    if reference:
        return None
    ok = {}
    rounds = len(train)

    if cfg["kind"] == "train":
        steps = [o for o in rec["outs"] if o is not None]
        model.load(rec["snapshot"])
        evals, tr = [], tracer or NOTRACE
        for xb, yb in test:
            with tr.span("eval"):
                evals.append(H.eval_batch(model, xb, yb, tr))
        ok["training"] = C.loss_fell([s[0] for s in steps[:rounds]], [s[0] for s in steps[-rounds:]])
        ok["simplex"] = all(C.on_simplex(s[1].w) for s in steps)
        if cfg["cim"]:
            banks = cim.make_banks(steps[0][2].shape[1], cim.CimConfig())
            ok["cim_objective"] = ok["cim_weights"] = True
            for _, w, feats in steps:
                learned = C.closed_form_objective(feats, banks, w.w)
                uniform = C.closed_form_objective(feats, banks, np.ones(w.w.size))
                ok["cim_objective"] &= C.objective_matches(cim.independence_objective(feats, banks, w), learned)
                ok["cim_weights"] &= C.no_worse_than_uniform(learned, uniform)
        # The first step again, from the initial weights with its CIM weights: a
        # trained model saturates many pixels at the loss's probability clip,
        # and kinks on both sides of a stencil defeat every difference quotient.
        pairs = C.gradient_pairs(H.Model(cfg["size"]), *train[0], steps[0][1], generator(seed, 3))
        ok["gradients"] = C.gradients_agree(pairs)
    else:
        evals = [o for o in rec["outs"][:len(test)] if o is not None]
        ok["training"] = C.loss_fell(history[:rounds], history[-rounds:])
        x0, p0 = test[0][0], evals[0][0]
        with T.Tape():
            taped = model.forward(Tensor(x0), NOTRACE)[0].data[:, 1]
        ok["forward_taped"] = C.forward_equal(taped, p0)
        ok["forward_alone"] = all(C.forward_equal(H.predict(model, x0[j:j + 1], NOTRACE)[0][0], p0[j])
                                  for j in range(len(x0)))

    ok["metrics"] = all(C.metrics_match(e[2:], C.confusion_metrics(e[1], yb)) for e, (_, yb) in zip(evals, test))
    miou_shift = float(np.mean([e[2] for e in evals]))
    dsc_shift = float(np.mean([e[3] for e in evals]))
    ok["beats_background"] = C.beats_background(miou_shift, [yb for _, yb in test])
    for check, passed in ok.items():
        if not passed:
            print(f"check failed: {check}", file=sys.stderr)

    if trace:
        step_ms = 1e3 * statistics.median(rec["times"])
        overhead = 1e3 * statistics.median(rec["traced"]) - step_ms
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.json")
        metrics = {k: (v, _unit(k)) for k, v in tracer.per_layer(overhead).items()}
        metrics["step_ms_p50"] = (step_ms, "ms")
    else:
        metrics = {
            "peak_rss_mb": (rec["rss_mb"], "MB"),
            "miou_shift": (miou_shift, "%"),
            "dsc_shift": (dsc_shift, "%"),
        }
    return {
        "correct": all(ok.values()),
        "attempted": len(rec["outs"]),
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric.endswith("_ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--lockstep", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)

    def ready(units_per_round, min_units):
        print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC):.9f} {units_per_round} {min_units}", flush=True)
        if args.setup_only:
            raise SystemExit(0)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), on_ready=ready,
                 lockstep=args.lockstep, reference=args.reference)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
