"""The three workloads: their fixed shapes and their seeded inputs.

The benchmark takes the workload seed as an argument; the serving stack
only ever receives the prompts and the arrival schedule generated here.
Every shape constant below is part of the benchmark's definition (see
README.md for why each workload exists and how the limits were set):
changing one changes what the benchmark measures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.workloads.datasets import PromptDataset, dataset_specs

VOCAB_SIZE = 64

#: Latency limits for online_chat goodput, set once from unloaded
#: single-request measurements (README.md, "SLO limits and the ladder").
TTFT_LIMIT_S = 0.150
TPOT_LIMIT_S = 0.010

#: The online_chat open-loop ladder: ``(offered requests/s, seconds)`` per
#: rung, run in order.  The middle rung offers load for the run's
#: ``--seconds`` (``None``) and supplies the latency percentiles; the
#: outer rungs bracket it: the low one is a floor, the high one is far
#: past capacity so it fails its limits by a wide margin.  At the middle
#: rate about a quarter of requests arrive while the loop is busy with
#: another request, so TTFT p50 sits in the uncontended body of the
#: distribution and p90 inside the contended tail, each away from the
#: gap between them where a percentile would jump from run to run.
LADDER = ((4, 4.0), (8, None), (40, 4.0))


#: Closed-loop requests per measured segment.  ``single_stream`` reports
#: the median of its per-segment figures; 100 requests is the fewest that
#: give a p90 with ten samples beyond it.
SEGMENT_REQUESTS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    max_prompt_len: int
    max_new_tokens: int
    batch: int
    #: Requests the stack decodes at once; the reference kernel
    #: (hostclock.py) decodes as many rows.
    in_flight: int
    #: Requests per offline repetition (offline_decode only); each
    #: repetition is one measured segment.
    requests: int = 0


WORKLOADS = {
    "offline_decode": Workload("offline_decode", "WebQA", 16, 64, 16, 16,
                               requests=128),
    "online_chat": Workload("online_chat", "CP", 64, 16, 8, 8),
    "single_stream": Workload("single_stream", "Alpaca", 64, 32, 8, 1),
}


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def prompts(workload: Workload, seed: int, count: int) -> List[np.ndarray]:
    """``count`` prompts from the workload's dataset profile under ``seed``."""
    spec = dataset_specs()[workload.dataset]
    # The dataset profile fixes the length and token distributions; the
    # benchmark seed picks the draw.
    seeded = dataclasses.replace(
        spec, seed=int(_rng(seed, spec.seed).integers(2**31)))
    return PromptDataset(seeded, VOCAB_SIZE).sample_prompts(
        count, max_len=workload.max_prompt_len)


def warmup_prompt(workload: Workload) -> np.ndarray:
    """The one warm-up request's prompt.  Fixed across seeds, so that
    ``setup_s`` varies with the host, not with the seed's first prompt."""
    return prompts(workload, 0, 1)[0]


def ladder_schedule(seed: int, seconds: float
                    ) -> List[Tuple[int, np.ndarray]]:
    """Per rung: ``(rate, due offsets in seconds from the rung start)``.

    Arrivals are Poisson conditioned on their count in each one-second
    bin: every second of a rung of rate ``r`` offers exactly ``r``
    requests at uniform times within it.  Every seed therefore offers the
    same load second by second, and only the arrival pattern within each
    second varies; an unconditioned draw would let the seed move the
    offered load itself by several percent.
    """
    schedule = []
    for k, (rate, span) in enumerate(LADDER):
        rng = _rng(seed, 100 + k)
        bins = int(round(span if span is not None else seconds))
        offsets = np.sort(np.concatenate(
            [b + rng.uniform(0.0, 1.0, size=rate) for b in range(bins)]))
        schedule.append((rate, offsets))
    return schedule


#: Middle-rung length of the schedule that :func:`inputs_fingerprint`
#: covers.
FINGERPRINT_SECONDS = 20.0


def inputs_fingerprint(workload: Workload, seed: int, count: int) -> bytes:
    """Every generated input as bytes (for the determinism test)."""
    parts = [p.astype(np.int64).tobytes() for p in prompts(workload, seed,
                                                           count)]
    if workload.name == "online_chat":
        for rate, offsets in ladder_schedule(seed, FINGERPRINT_SECONDS):
            parts.append(np.float64(rate).tobytes())
            parts.append(offsets.astype(np.float64).tobytes())
    return b"|".join(parts)
