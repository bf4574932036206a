"""Pure helpers: percentiles, the goodput-ladder rule, output checks and
modeled-clock pricing.  Nothing here touches the clock or the serving
stack, so the benchmark's tests exercise these on synthetic inputs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Share of a rung's requests that must meet both limits for the rung to
#: count towards goodput.
GOODPUT_MIN_SHARE = 0.9

#: A percentile ``q`` is reported only when at least this many samples lie
#: beyond it, so a tail figure never rests on one or two outliers.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES` samples
    lie beyond the quantile: p90 needs at least 100 samples, p50 at
    least 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(values)
    needed = math.ceil(MIN_TAIL_SAMPLES / (1.0 - q) - 1e-9)
    if n < needed:
        raise ValueError(f"p{round(q * 100)} needs {needed} samples, got {n}")
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- per-request records ------------------------------------------------------


@dataclass
class RequestRecord:
    """What the client saw of one request (host clock, seconds).

    ``due`` is when the request was due to be sent (open loop: its
    schedule slot; closed loop and offline: the moment it was sent), so a
    stalled generator shows up as ``sent - due`` lateness and in TTFT.
    """

    index: int
    prompt_key: bytes
    due: float = 0.0
    sent: float = 0.0
    rejected: bool = False
    failed: bool = False
    done: bool = False
    tokens: List[int] = field(default_factory=list)
    indices: List[int] = field(default_factory=list)
    times: List[float] = field(default_factory=list)

    @property
    def lateness(self) -> float:
        return self.sent - self.due

    @property
    def completed(self) -> bool:
        return self.done and not (self.rejected or self.failed)

    @property
    def ttft(self) -> float:
        return self.times[0] - self.due

    @property
    def tpot(self) -> float:
        n = len(self.times)
        return (self.times[-1] - self.times[0]) / (n - 1) if n > 1 else 0.0

    @property
    def latency(self) -> float:
        return self.times[-1] - self.due


def segments(records: Sequence[RequestRecord], size: int
             ) -> List[List[RequestRecord]]:
    """Consecutive blocks of ``size`` records; a shorter last block is
    joined to the one before it, so every block has at least ``size``."""
    blocks = [list(records[i:i + size]) for i in range(0, len(records), size)]
    if len(blocks) > 1 and len(blocks[-1]) < size:
        tail = blocks.pop()
        blocks[-1] += tail
    return blocks


def window(records: Sequence[RequestRecord]) -> float:
    """Seconds from the first due time to the last token delivered."""
    return (max(r.times[-1] for r in records if r.times)
            - min(r.due for r in records))


def meets_slo(record: RequestRecord, ttft_limit: float,
              tpot_limit: float) -> bool:
    """Whether a request met both limits; failed or refused ones miss."""
    return (record.completed and record.ttft <= ttft_limit
            and record.tpot <= tpot_limit)


@dataclass
class Rung:
    """One offered rate of the open-loop ladder and what it produced."""

    rate: float
    records: List[RequestRecord]
    window: float  # seconds from the first due time to the last token


def goodput(rungs: Sequence[Rung], ttft_limit: float, tpot_limit: float
            ) -> Optional[Rung]:
    """The highest-rate rung at which :data:`GOODPUT_MIN_SHARE` of the
    requests sent met both limits, or ``None`` when no rung did."""
    best = None
    for rung in rungs:
        if not rung.records:
            continue
        good = sum(meets_slo(r, ttft_limit, tpot_limit) for r in rung.records)
        if good >= GOODPUT_MIN_SHARE * len(rung.records):
            if best is None or rung.rate > best.rate:
                best = rung
    return best


def good_per_second(rung: Rung, ttft_limit: float, tpot_limit: float) -> float:
    """Requests that met both limits per second of the rung's window."""
    good = sum(meets_slo(r, ttft_limit, tpot_limit) for r in rung.records)
    return good / rung.window


# -- output checks ------------------------------------------------------------


def check_outputs(records: Sequence[RequestRecord],
                  references: Dict[bytes, List[int]],
                  max_new_tokens: int) -> List[tuple]:
    """``(record, message)`` for each request whose stream is not exactly
    its reference.

    A completed request must deliver exactly ``max_new_tokens`` tokens,
    indexed ``0..n-1`` with none duplicated or missing, equal to the
    reference continuation.  Refused requests are not checked here (they
    count as failures, not mismatches); a request that neither completed
    nor was refused is a mismatch.
    """
    problems = []
    for record in records:
        if record.rejected:
            continue
        if not record.completed:
            problems.append((record, f"request {record.index}: did not "
                                     "complete"))
            continue
        if record.indices != list(range(len(record.tokens))):
            problems.append((record, f"request {record.index}: stream "
                                     "indices duplicated or missing"))
        elif len(record.tokens) != max_new_tokens:
            problems.append((record, f"request {record.index}: "
                                     f"{len(record.tokens)} tokens, expected "
                                     f"{max_new_tokens}"))
        elif record.tokens != references[record.prompt_key]:
            first = next(i for i, (a, b) in enumerate(
                zip(record.tokens, references[record.prompt_key])) if a != b)
            problems.append((record, f"request {record.index}: token "
                                     f"{first} differs from the incremental "
                                     "reference"))
    return problems


# -- modeled clock ------------------------------------------------------------


@dataclass
class ModeledTime:
    """Modeled seconds of a run, split by phase."""

    speculate: float = 0.0
    verify: float = 0.0
    prefill: float = 0.0
    steps: int = 0

    @property
    def decode(self) -> float:
        return self.speculate + self.verify

    @property
    def total(self) -> float:
        return self.speculate + self.verify + self.prefill


@dataclass
class SessionLog:
    """A session the benchmark's factory built: the manager iteration it
    was admitted in, its prompt length, and its live step-trace list."""

    admit_iteration: int
    prompt_len: int
    steps: list


def price_iterations(llm_cost, ssm_cost, sessions: Sequence[SessionLog],
                     iteration_stats: Sequence) -> ModeledTime:
    """Price a served run on the modeled clock, one fused step per
    manager iteration.

    Every running session advances once per iteration, so a session's
    ``j``-th step ran in iteration ``admit_iteration + j``.  Per iteration
    the LLM scores the whole batch in one pass (scored positions and KV
    reads summed over requests) and the drafter runs level-synchronously:
    the deepest request's SSM step count, each level one batched call.  At
    batch 1 this is exactly :meth:`repro.cluster.ServingSimulator.replay`.
    Each admission's prompt prefill is priced as one pass of both models.

    ``iteration_stats`` (the manager's log) must agree with the
    reconstructed per-iteration scored-token totals; a mismatch raises
    rather than misprice the run.
    """
    by_iteration: Dict[int, list] = defaultdict(list)
    modeled = ModeledTime()
    for log in sessions:
        for j, trace in enumerate(log.steps):
            by_iteration[log.admit_iteration + j].append(trace)
        n = log.prompt_len - 1
        if n > 0:
            modeled.prefill += llm_cost.step_latency(n, n)
            modeled.prefill += ssm_cost.step_latency(n, n)
    for stats in iteration_stats:
        scored = sum(t.llm_tokens_scored
                     for t in by_iteration.get(stats.iteration, ()))
        if scored != stats.llm_tokens_scored:
            raise ValueError(
                f"iteration {stats.iteration}: session traces score {scored}"
                f" tokens, the manager logged {stats.llm_tokens_scored}")
    for traces in by_iteration.values():
        scored = sum(max(t.llm_tokens_scored, 1) for t in traces)
        context = sum(t.prefix_len + max(t.llm_tokens_scored, 1)
                      for t in traces)
        modeled.verify += llm_cost.step_latency(scored, context)
        levels = max(t.ssm_steps for t in traces)
        if levels:
            drafting = [t for t in traces if t.ssm_steps]
            width = sum(max(1, round(t.tree_size / max(t.tree_depth, 1)))
                        for t in drafting)
            context = sum(t.prefix_len + t.tree_depth for t in drafting)
            modeled.speculate += levels * ssm_cost.step_latency(width, context)
        modeled.steps += 1
    return modeled
