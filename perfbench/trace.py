"""Spans around the benchmark's own calls into each layer, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, nodes); ``nodes`` is the growth of the
tape handed to the span, if any. Spans stay in memory until ``write``.
Top-level spans are roots: ``unit`` (a timed step or eval batch), ``eval``
(the shifted-set evaluation of the train workloads), ``probe`` (a layer the
workload's unit does not call, run once after a traced unit on that unit's
inputs) and ``replay`` (each block of the last traced unit re-run under its
own tape, forward and backward).
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from causalseg import tensor as T
from causalseg.tensor import Tensor

BLOCKS = ("blocks.cnn_down", "blocks.mbconv", "dac.dac_fuse", "blocks.transformer_block", "blocks.decoder_block")


class NoTrace:
    """Stand-in used by untraced units: calls straight through."""

    def layer(self, name, fn, *args):
        return fn(*args)

    def span(self, name, tape=None):
        return nullcontext()

    def count(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, nodes]
        self.counts: list[tuple] = []  # (root index, name, value)
        self.calls: list[tuple] = []   # block calls made under the latest root span
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, tape=None):
        if not self._stack:
            self.calls = []
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        n0 = len(tape) if tape is not None else 0
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            if tape is not None:
                rec[4] = len(tape) - n0
            self._stack.pop()

    def layer(self, name, fn, *args):
        with self.span(name):
            out = fn(*args)
        self.calls.append((name, fn, args, out.shape))
        return out

    def count(self, name, value):
        self.counts.append((self._stack[0], name, value))

    def replay(self):
        """Re-run each block called under the latest root span on a detached
        copy of its input, under a tape of its own, with a cotangent of ones."""
        calls = self.calls
        with self.span("replay"):
            for name, fn, args, shape in calls:
                inputs = [Tensor(a.data, requires_grad=a.requires_grad) if isinstance(a, Tensor) else a
                          for a in args]
                cot = Tensor(np.ones(shape))
                with T.Tape() as tape, self.span(name + ".fwdbwd"):
                    out = fn(*inputs)
                    loss = T.total_sum(T.mul(out, cot))
                    nodes = len(tape)
                    grads = T.backward(loss, tape)
                for leaf in grads:
                    leaf.zero_grad()
                self.count(name + ".nodes", nodes - 2)  # the cotangent's mul and sum are not the block's

    # -- derived figures -----------------------------------------------------

    def _self_ns(self) -> list[int]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def _per_root(self) -> dict[int, dict[str, float]]:
        """Per root span: summed milliseconds per span name, span node growth
        (``<name>#nodes``) and counts."""
        roots: dict[int, dict[str, float]] = {}
        root = -1
        for i, (name, start, end, parent, nodes) in enumerate(self.spans):
            if parent < 0:
                root = i
                roots[i] = {}
                continue
            acc = roots[root]
            acc[name] = acc.get(name, 0.0) + (end - start) / 1e6
            acc[name + "#nodes"] = acc.get(name + "#nodes", 0) + nodes
        for r, name, value in self.counts:
            roots[r][name] = value
        return roots

    def per_layer(self, overhead_ms: float) -> dict[str, float]:
        roots = self._per_root()
        kinds = {i: self.spans[i][0] for i in roots}

        def pick(key):
            """Median over ``unit`` roots that hold ``key``, else over any root that does."""
            vals = [acc[key] for i, acc in roots.items() if kinds[i] == "unit" and key in acc]
            vals = vals or [acc[key] for acc in roots.values() if key in acc]
            if not vals:
                raise KeyError(f"no span or count named {key} was recorded")
            return float(statistics.median(vals))

        out = {}
        for b in BLOCKS:
            out[f"{b}.fwd_ms"] = pick(b)
            out[f"{b}.fwdbwd_ms"] = pick(b + ".fwdbwd")
            out[f"{b}.nodes"] = pick(b + ".nodes")
        out["losses.loss_ms"] = pick("losses.loss")
        out["losses.loss_nodes"] = pick("losses.loss#nodes")
        out["losses.metrics_ms"] = pick("losses.metrics")
        out["cim.extract_ms"] = pick("cim.extract")
        out["cim.learn_weights_ms"] = pick("cim.learn_weights")
        out["cim.objective_nodes"] = pick("cim.objective_nodes")
        out["cim.obj_ratio"] = pick("cim.obj_ratio")
        out["tensor.backward_ms"] = pick("tensor.backward")
        out["tensor.step_nodes"] = pick("tensor.step_nodes")
        out["trace.overhead_ms"] = overhead_ms
        return out

    def write(self, path) -> None:
        own = self._self_ns()
        by_name: dict[str, float] = {}
        for s, o in zip(self.spans, own):
            by_name[s[0]] = by_name.get(s[0], 0.0) + o / 1e6
        doc = {
            "spans": [dict(name=s[0], start_ns=s[1], end_ns=s[2], parent=s[3], self_ns=o, nodes=s[4])
                      for s, o in zip(self.spans, own)],
            "counts": [dict(root=r, name=n, value=v) for r, n, v in self.counts],
            "self_ms_by_name": dict(sorted(by_name.items(), key=lambda kv: -kv[1])),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
