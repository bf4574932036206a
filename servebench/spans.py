"""The traced run: spans recorded around calls into the stack's layers.

Every span wraps a call into a public method of an object the benchmark
built (instance attributes shadow the class methods while tracing and are
deleted afterwards), so the program itself is unchanged.  Spans live in
memory as ``[name, start, end, parent, request, attrs]`` and are written
out once, after the run.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Dict, List

import numpy as np

clock = time.perf_counter

#: Layer that owns each span's self time in the host-time ledger.
LAYER_OF = {
    "gateway.submit": "serving",
    "manager.submit": "serving",
    "manager.step": "serving",
    "manager.admit": "serving",
    "verify": "verify",
}
MODEL_METHODS = ("prefill", "decode", "forward_masked",
                 "forward_masked_blocks")
for _method in MODEL_METHODS:
    LAYER_OF[f"model.llm.{_method}"] = "model"
    LAYER_OF[f"model.ssm.{_method}"] = "speculate"
LAYERS = ("serving", "speculate", "verify", "model")


def forward_cost(config, masks) -> Dict[str, float]:
    """Operations and bytes of one ``forward_masked_blocks`` call, computed
    from tensor shapes (not measured): GEMMs and attention at 2 FLOPs per
    multiply-add; bytes are every weight read once plus each request's
    K/V rows read and the new rows written."""
    d, ff, vocab, layers = (config.d_model, config.d_ff, config.vocab_size,
                            config.n_layers)
    n = sum(m.shape[0] for m in masks)
    keys = sum(m.shape[0] * m.shape[1] for m in masks)
    flops = layers * (2 * n * d * (3 * d + d + 2 * ff) + 4 * keys * d)
    flops += 2 * n * d * vocab
    itemsize = np.dtype(config.dtype).itemsize
    kv_rows = sum(m.shape[1] for m in masks) + n
    moved = itemsize * (config.num_parameters() + layers * 2 * d * kv_rows)
    return {"flops": float(flops), "bytes": float(moved)}


class SpanRecorder:
    """In-memory span log with a parent stack (single-threaded use)."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._wrapped: List[tuple] = []
        #: Per verify call (one per step): arena utilization, and requests
        #: waiting for a batch slot (gateway queues plus the manager's).
        self.arena_samples: List[float] = []
        self.queue_samples: List[int] = []

    def _open(self, name: str, request=None, attrs=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, clock(), 0.0, parent, request, attrs or {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = clock()
        self._stack.pop()

    def wrap(self, obj, method: str, name: str, before=None, after=None):
        """Shadow ``obj.method`` with a span-recording wrapper.

        ``before(args, kwargs)`` returns ``(request, attrs)`` for the span;
        ``after(record, result)`` may fill in what only the result knows.
        """
        original = getattr(obj, method)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            request, attrs = before(args, kwargs) if before else (None, None)
            record = self._open(name, request, attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(record, result)
            return result

        self._wrapped.append((obj, method, method in vars(obj), original))
        setattr(obj, method, traced)

    def wrap_async(self, obj, method: str, name: str, after):
        """Like :meth:`wrap` for a coroutine method.  Its span is a leaf
        that never joins the parent stack, since other tasks run while it
        is suspended."""
        original = getattr(obj, method)

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, clock(), 0.0, parent, None, {}]
            self.spans.append(record)
            try:
                result = await original(*args, **kwargs)
            finally:
                record[2] = clock()
            after(record, result)
            return result

        self._wrapped.append((obj, method, method in vars(obj), original))
        setattr(obj, method, traced)

    def unwrap(self) -> None:
        """Restore every wrapped method (latest first)."""
        for obj, method, had_own, original in reversed(self._wrapped):
            if had_own:
                setattr(obj, method, original)
            else:
                delattr(obj, method)
        self._wrapped = []

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans as JSON lines (one header line with ``meta``)."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"meta": meta}) + "\n")
            for i, (name, start, end, parent, request, attrs) in enumerate(
                    self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "request": request}
                row.update({k: v for k, v in attrs.items()
                            if isinstance(v, (int, float, str))})
                handle.write(json.dumps(row) + "\n")


def instrument(recorder: SpanRecorder, stack) -> None:
    """Wrap every layer boundary of ``stack`` named in README.md."""
    manager = stack.manager

    def submitted(record, request_id):
        record[4] = request_id

    recorder.wrap(manager, "submit", "manager.submit", after=submitted)
    recorder.wrap(manager, "step", "manager.step")
    recorder.wrap(manager, "run_iteration", "manager.step")
    recorder.wrap(manager, "session_factory", "manager.admit",
                  before=lambda a, k: (a[0].request_id, None))

    if stack.gateway is not None:
        def gateway_submitted(record, stream):
            record[5]["stream"] = stream

        recorder.wrap_async(stack.gateway, "submit", "gateway.submit",
                            after=gateway_submitted)

    arena, gateway = stack.arena, stack.gateway

    def verify_rows(args, kwargs):
        recorder.arena_samples.append(arena.utilization())
        recorder.queue_samples.append(manager.num_waiting + (
            gateway.queue_depth if gateway is not None else 0))
        return None, {"rows": sum(len(tree) for tree in args[1])}

    recorder.wrap(stack.backend, "verify", "verify", before=verify_rows)

    for role, model in (("llm", stack.llm), ("ssm", stack.ssm)):
        config = model.config
        for method in ("prefill", "decode", "forward_masked"):
            recorder.wrap(model, method, f"model.{role}.{method}")

        def blocks(args, kwargs, config=config):
            masks = args[2] if len(args) > 2 else kwargs["masks"]
            return None, forward_cost(config, masks)

        recorder.wrap(model, "forward_masked_blocks",
                      f"model.{role}.forward_masked_blocks", before=blocks)


# -- reading the spans --------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - covered[i] for i, s in enumerate(spans)]


#: Seconds of float rounding allowed when comparing span ends.
TOLERANCE = 1e-9


def nesting_problems(spans: List[list], start: float, end: float
                     ) -> List[str]:
    """Why the spans cannot be laid out as one time line, if they cannot.

    Self times add up to covered host time only when every span lies
    inside its parent (roots inside the phase window ``[start, end]``)
    and no two siblings overlap.  Spans are recorded when they open, so
    siblings appear in start order.
    """
    problems = []
    sibling_end: Dict[int, float] = {}
    for i, (name, s, e, parent, _, _) in enumerate(spans):
        lo, hi = (spans[parent][1], spans[parent][2]) if parent >= 0 else (
            start, end)
        if e < s or s < lo - TOLERANCE or e > hi + TOLERANCE:
            problems.append(f"span {i} ({name}) lies outside its "
                            f"{'parent' if parent >= 0 else 'phase'}")
        if s < sibling_end.get(parent, lo) - TOLERANCE:
            problems.append(f"span {i} ({name}) overlaps the span before it")
        sibling_end[parent] = max(e, sibling_end.get(parent, lo))
    return problems


def ledger(spans: List[list], start: float, end: float) -> Dict[str, float]:
    """Host seconds per layer (span self times) plus the unattributed
    remainder (event loop, client tasks, driver) of the phase
    ``[start, end]``.

    Raises ``ValueError`` when the spans overlap or leave the window, or
    when a self time or the remainder comes out negative: the layer
    seconds must fit inside the wall time, not merely be topped up to it.
    """
    problems = nesting_problems(spans, start, end)
    selfs = self_times(spans)
    problems += [f"span {i} ({spans[i][0]}) has negative self time"
                 for i, own in enumerate(selfs) if own < -TOLERANCE]
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        totals[LAYER_OF[span[0]]] += own
    attributed = sum(totals.values())
    if attributed > (end - start) + TOLERANCE * max(len(spans), 1):
        problems.append(f"layers cover {attributed:.6f} s of a "
                        f"{end - start:.6f} s phase")
    totals["unattributed"] = (end - start) - attributed
    if problems:
        raise ValueError("host-time ledger: " + "; ".join(problems[:5]))
    return totals


def in_steps(spans: List[list], prefix: str) -> List[int]:
    """Spans named ``prefix…`` that ran inside a decode step, outermost
    only (a layer's nested calls are not counted twice).  Calls under the
    step's admission are left out: admission prefill belongs to
    admission, not to the decode step that happened to admit."""
    found = []
    for i, span in enumerate(spans):
        if not span[0].startswith(prefix):
            continue
        parent = span[3]
        while parent >= 0:
            name = spans[parent][0]
            if name.startswith(prefix) or name == "manager.admit":
                break
            if name == "manager.step":
                found.append(i)
                break
            parent = spans[parent][3]
    return found
