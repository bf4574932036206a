"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest servebench/tests -q
"""

import asyncio
import os
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads as wl  # noqa: E402
from drivers import open_loop  # noqa: E402
from stats import (  # noqa: E402
    RequestRecord,
    Rung,
    SessionLog,
    check_outputs,
    goodput,
    percentile,
    price_iterations,
    segments,
    window,
)

from hostclock import HostClock  # noqa: E402
from spans import ledger  # noqa: E402

from repro.serving import StreamEvent  # noqa: E402


def _record(index, ttft=0.01, tpot=0.001, tokens=4, rejected=False):
    record = RequestRecord(index, b"", due=0.0, sent=0.0, done=not rejected,
                           rejected=rejected)
    record.times = [ttft + tpot * i for i in range(tokens)]
    record.tokens = list(range(tokens))
    record.indices = list(range(tokens))
    return record


# -- percentiles --------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.9)
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)


def test_p50_needs_twenty_samples():
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.5)
    assert percentile(list(range(21)), 0.5) == 10


# -- segments -----------------------------------------------------------------


def test_segments_join_a_short_tail_to_the_last_block():
    records = [_record(i) for i in range(250)]
    assert [len(b) for b in segments(records, 100)] == [100, 150]
    assert [len(b) for b in segments(records[:90], 100)] == [90]
    assert [len(b) for b in segments(records[:200], 100)] == [100, 100]


def test_window_runs_from_first_due_to_last_token():
    early, late = _record(0), _record(1, ttft=0.5)
    late.due = 0.2
    assert window([early, late]) == pytest.approx(0.5 + 0.001 * 3)


# -- open-loop timing ---------------------------------------------------------


class _StallingGateway:
    """Answers at once with ``tokens`` tokens, but blocks the event loop
    for ``stall`` seconds while submitting request ``stall_at``."""

    def __init__(self, stall_at, stall, tokens=3):
        self.stall_at, self.stall, self.tokens = stall_at, stall, tokens
        self.calls = 0

    async def submit(self, prompt, config):
        if self.calls == self.stall_at:
            time.sleep(self.stall)  # a blocked loop, not an awaited wait
        self.calls += 1
        return self._stream()

    async def _stream(self):
        for i in range(self.tokens):
            yield StreamEvent(kind="token", token=i, index=i)
        yield StreamEvent(kind="done")


def test_open_loop_times_requests_from_their_due_time():
    prompts = [np.array([1, 2])] * 3
    offsets = [0.0, 0.01, 0.02]

    async def drive():
        start = time.perf_counter() + 0.01
        return await open_loop(_StallingGateway(1, 0.1), prompts, offsets,
                               None, start, 0)

    first, second, third = asyncio.run(drive())
    assert first.lateness < 0.05 and first.ttft < 0.05
    # The second submission blocked the loop for 0.1 s: the third request,
    # due meanwhile, was sent late, and the stall shows in its TTFT
    # because TTFT is measured from the due time.
    assert second.ttft > 0.09
    assert third.lateness > 0.05
    assert third.ttft >= third.lateness
    assert third.ttft > first.ttft + 0.05


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_follow_the_seed(name):
    workload = wl.WORKLOADS[name]
    same = wl.inputs_fingerprint(workload, 7, 40)
    assert same == wl.inputs_fingerprint(workload, 7, 40)
    assert same != wl.inputs_fingerprint(workload, 8, 40)


def test_ladder_offers_the_same_load_every_second():
    for rate, offsets in wl.ladder_schedule(3, 12):
        counts = np.bincount(offsets.astype(int))
        assert (counts == rate).all()


# -- goodput ------------------------------------------------------------------


def test_goodput_picks_the_highest_rung_meeting_the_limits():
    fast = [_record(i) for i in range(10)]
    # 9 of 10 meet the limits: exactly the 90% threshold passes.
    edge = [_record(i) for i in range(9)] + [_record(9, ttft=1.0)]
    # 8 of 10 meet the limits, and a refused request counts as a miss.
    slow = ([_record(i) for i in range(8)] + [_record(8, tpot=1.0)]
            + [_record(9, rejected=True)])
    rungs = [Rung(5, fast, 1.0), Rung(10, edge, 1.0), Rung(20, slow, 1.0)]
    assert goodput(rungs, 0.1, 0.01).rate == 10
    assert goodput(rungs[2:], 0.1, 0.01) is None


# -- output check -------------------------------------------------------------


def test_output_check_catches_a_wrong_token():
    reference = {b"": [0, 1, 2, 3]}
    good, wrong, duplicated, short = (_record(i) for i in range(4))
    wrong.tokens[2] = 9
    duplicated.indices[3] = 2
    short.tokens.pop(), short.indices.pop(), short.times.pop()
    problems = check_outputs([good, wrong, duplicated, short], reference, 4)
    assert [record.index for record, _ in problems] == [1, 2, 3]
    assert "token 2 differs" in problems[0][1]


# -- modeled clock ------------------------------------------------------------


def test_batch1_pricing_matches_the_serving_simulator():
    from repro.cluster import ServingSimulator
    from repro.engine.generation import GenerationResult
    from repro.model import ModelConfig, TransformerLM
    from stack import build_stack, cost_models, generation_config
    from drivers import run_offline

    llm = TransformerLM(ModelConfig(vocab_size=64, d_model=16, n_layers=1,
                                    n_heads=2, max_seq_len=64), seed=1)
    ssm = TransformerLM(ModelConfig(vocab_size=64, d_model=8, n_layers=1,
                                    n_heads=1, max_seq_len=64), seed=2)
    stack = build_stack(None, 1, False, models=(llm, ssm))
    prompt = np.array([3, 9, 4, 7, 1])
    (record,) = run_offline(stack.manager, [prompt], generation_config(12))
    assert record.completed and len(record.tokens) == 12

    (log,) = stack.sessions
    llm_cost, ssm_cost = cost_models()
    modeled = price_iterations(llm_cost, ssm_cost, [log],
                               stack.manager.iteration_stats)
    result = GenerationResult(prompt=prompt)
    result.steps = list(log.steps)
    result.tokens = record.tokens
    replay = ServingSimulator(llm_cost, ssm_cost).replay(result, 1)
    assert modeled.speculate == pytest.approx(replay.spec_seconds, rel=1e-12)
    assert modeled.verify == pytest.approx(replay.verify_seconds, rel=1e-12)
    assert modeled.steps == len(log.steps)


def test_pricing_rejects_a_log_that_disagrees_with_the_manager():
    from repro.engine.generation import StepTrace
    from repro.serving import IterationStats
    from stack import cost_models

    log = SessionLog(0, 4, [StepTrace(llm_tokens_scored=3, tokens_emitted=2)])
    stats = [IterationStats(iteration=0, batch_size=1, tokens_emitted=2,
                            llm_tokens_scored=5, admitted=1, finished=0)]
    with pytest.raises(ValueError):
        price_iterations(*cost_models(), [log], stats)


# -- host-time ledger --------------------------------------------------------


def _span(name, start, end, parent=-1):
    return [name, start, end, parent, None, {}]


def test_ledger_splits_the_wall_time_by_layer():
    spans = [_span("manager.step", 1.0, 5.0),
             _span("verify", 1.5, 4.0, parent=0),
             _span("model.llm.forward_masked_blocks", 2.0, 3.5, parent=1),
             _span("model.ssm.decode", 4.0, 4.5, parent=0),
             _span("manager.step", 6.0, 7.0)]
    book = ledger(spans, 0.0, 10.0)
    assert book == pytest.approx({"serving": 2.0, "verify": 1.0,
                                  "model": 1.5, "speculate": 0.5,
                                  "unattributed": 5.0})


@pytest.mark.parametrize("spans", [
    # Two top-level spans overlap: their self times count 1 s twice.
    [_span("manager.step", 1.0, 5.0), _span("gateway.submit", 4.0, 9.0)],
    # A child outlives its parent, so the parent's self time goes negative.
    [_span("verify", 1.0, 2.0), _span("model.llm.decode", 1.5, 3.0, 0)],
    # Overlapping children of one step.
    [_span("manager.step", 0.0, 4.0), _span("verify", 0.5, 3.0, 0),
     _span("model.ssm.decode", 2.0, 3.5, 0)],
    # A span that runs past the end of the phase.
    [_span("manager.step", 8.0, 11.0)],
], ids=["overlapping-roots", "child-outside-parent", "overlapping-children",
        "outside-phase"])
def test_ledger_rejects_spans_that_do_not_nest(spans):
    with pytest.raises(ValueError, match="host-time ledger"):
        ledger(spans, 0.0, 10.0)


# -- reference seconds --------------------------------------------------------


def _host(slowdowns, gap=1.0):
    """A HostClock whose slices ran at ``slowdowns``, ``gap`` s apart."""
    host, t = HostClock(16), 0.0
    for slow in slowdowns:
        host.slices.append((t, t + slow * host.nominal))
        t += slow * host.nominal + gap
    return host


def test_reference_seconds_follow_the_local_slowdown():
    # A steady host at the reference speed: gaps map one to one.
    steady = _host([1.0] * 12)
    convert = steady.converter()
    start, end = steady.slices[2][1], steady.slices[7][0]
    assert convert(end) - convert(start) == pytest.approx(5.0)
    # Twice as slow for the second half: those gaps count half as long.
    host = _host([1.0] * 12 + [2.0] * 12)
    convert = host.converter()
    assert (convert(host.slices[2][1]) - convert(host.slices[0][1])
            == pytest.approx(2.0))
    assert (convert(host.slices[22][1]) - convert(host.slices[20][1])
            == pytest.approx(1.0))


def test_reference_slices_take_no_reference_time():
    host = _host([1.0] * 10)
    convert = host.converter()
    start, end = host.slices[4]
    assert convert(end) == pytest.approx(convert(start))
    # Stamps past either end extrapolate at the nearest gap's speed.
    assert convert(host.slices[0][0] - 0.5) == pytest.approx(-0.5)
    last = host.slices[-1][1]
    assert convert(last + 0.5) - convert(last) == pytest.approx(0.5)


# -- command line -------------------------------------------------------------


def test_refuses_to_run_under_the_sanitizer():
    env = dict(os.environ, REPRO_SANITIZE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "single_stream", "--seed", "1", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "REPRO_SANITIZE" in proc.stderr
