"""Load drivers: offline batch, open-loop ladder, closed-loop stream.

Each driver returns :class:`~stats.RequestRecord`s stamped on the host
clock from the client's side.  The drivers know nothing about tracing;
the traced run wraps the stack's methods before calling them.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.serving import AdmissionError

from stats import RequestRecord

clock = time.perf_counter


def prompt_key(prompt: np.ndarray) -> bytes:
    return np.asarray(prompt, dtype=np.int64).tobytes()


def run_offline(manager, prompts: Sequence[np.ndarray], config,
                between: Optional[Callable[[], None]] = None
                ) -> List[RequestRecord]:
    """Submit every prompt at once, then ``run_until_complete``.

    Token times come from a timestamp taken after each scheduler
    iteration; a request's tokens are the per-iteration emission deltas,
    so the stream check sees exactly what a streaming client would.
    ``between`` runs after each iteration's timestamp.
    """
    stamps: List[float] = []
    run_iteration = manager.run_iteration
    wrapped_already = "run_iteration" in vars(manager)

    def stamped(*args, **kwargs):
        stats = run_iteration(*args, **kwargs)
        stamps.append(clock())
        if between is not None:
            between()
        return stats

    first_stat = len(manager.iteration_stats)
    start = clock()
    ids = [manager.submit(p, config) for p in prompts]
    records = {rid: RequestRecord(i, prompt_key(p), due=start, sent=start)
               for i, (rid, p) in enumerate(zip(ids, prompts))}
    manager.run_iteration = stamped
    try:
        manager.run_until_complete()
    finally:
        if wrapped_already:
            manager.run_iteration = run_iteration
        else:
            del manager.run_iteration
    for stats, stamp in zip(manager.iteration_stats[first_stat:], stamps):
        for rid, tokens in stats.emissions.items():
            record = records[rid]
            for token in tokens:
                record.indices.append(len(record.tokens))
                record.tokens.append(int(token))
                record.times.append(stamp)
        for rid in stats.finished_ids:
            records[rid].done = True
        for rid in stats.failed_ids:
            records[rid].failed = True
    for rid, record in records.items():
        if record.done and manager.output_for(rid).tokens != record.tokens:
            record.done = False  # emissions disagree with the final output
    return [records[rid] for rid in ids]


async def _consume(stream, record: RequestRecord) -> None:
    async for event in stream:
        if event.kind == "token":
            record.times.append(clock())
            record.tokens.append(int(event.token))
            record.indices.append(int(event.index))
        elif event.kind == "done":
            record.done = True
        elif event.kind == "failed":
            record.failed = True


async def open_loop(gateway, prompts: Sequence[np.ndarray],
                    offsets: Sequence[float], config, start: float,
                    first_index: int) -> List[RequestRecord]:
    """Send request ``i`` when due at ``start + offsets[i]``, whatever the
    state of earlier requests; every stream is drained before returning.

    Requests are timed from their due time: when the event loop is blocked
    (a decode tick, or a slow submit) the generator wakes late, and that
    lateness lands in the request's TTFT as it would for a real client.
    A refused submission (``AdmissionError``) is recorded as rejected.
    """
    records: List[RequestRecord] = []
    consumers = []
    for i, (prompt, offset) in enumerate(zip(prompts, offsets)):
        due = start + float(offset)
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        record = RequestRecord(first_index + i, prompt_key(prompt), due=due,
                               sent=clock())
        records.append(record)
        try:
            stream = await gateway.submit(prompt, config)
        except AdmissionError:
            record.rejected = True
            continue
        consumers.append(asyncio.ensure_future(_consume(stream, record)))
    await asyncio.gather(*consumers)
    return records


async def closed_loop(gateway, prompts: Sequence[np.ndarray], config,
                      seconds: float,
                      between: Optional[Callable[[], None]] = None
                      ) -> List[RequestRecord]:
    """One client, one request in flight: send the next prompt the moment
    the previous stream ends, until ``seconds`` have passed (at least one
    request).  ``between`` runs after each stream ends, while no request
    is in flight."""
    records: List[RequestRecord] = []
    start = clock()
    i = 0
    while i == 0 or clock() - start < seconds:
        if i >= len(prompts):
            raise RuntimeError(f"closed loop ran out of its {len(prompts)}"
                               " prompts; generate more")
        prompt = prompts[i]
        now = clock()
        record = RequestRecord(i, prompt_key(prompt), due=now, sent=now)
        records.append(record)
        try:
            stream = await gateway.submit(prompt, config)
        except AdmissionError:
            record.rejected = True
        else:
            await _consume(stream, record)
        if between is not None:
            between()
        i += 1
    return records
