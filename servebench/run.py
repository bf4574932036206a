"""Two-clock serving benchmark: offline_decode, online_chat, single_stream.

Run from the repository root:

    python3 servebench/run.py --workload online_chat --seed 1 \
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` they are the per-layer metrics, measured
in a separately traced phase of the same invocation.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ZOO_DIR = os.path.join(HERE, ".zoo")
OUT_DIR = os.path.join(HERE, ".out")

#: Stack builds timed per run; setup_s is their median.
SETUP_REPEATS = 5

#: BLAS threads the run pins before NumPy loads.  The stack's matrices are
#: tiny, so a second thread buys nothing, and on a shared host it stalls
#: every GEMM while a neighbour holds the other core: with one of two cores
#: kept busy, offline_decode lost 45% of its tok_s at two threads and
#: nothing at one.
BLAS_THREADS = "1"

clock = time.perf_counter


def fail(message: str) -> None:
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


# -- environment stamp --------------------------------------------------------


def blas_threads(np):
    """OpenBLAS's thread count, read from the library NumPy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may not be git)."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(np) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


# -- phases -------------------------------------------------------------------


class Phase:
    """One measured stretch of serving on one stack."""

    def __init__(self, stack):
        self.stack = stack
        self.first_session = len(stack.sessions)
        self.first_stat = len(stack.manager.iteration_stats)
        self.records = []
        self.rungs = []
        self.start = self.end = 0.0
        self.sessions = []
        self.stats = []

    def close(self, start: float, end: float) -> "Phase":
        self.start, self.end = start, end
        self.sessions = self.stack.sessions[self.first_session:]
        self.stats = self.stack.manager.iteration_stats[self.first_stat:]
        return self

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def tokens(self) -> int:
        return sum(len(r.tokens) for r in self.records if r.completed)


def run_phase(stack, workload, inputs, seconds, reps=None, host=None):
    """Serve one phase of ``workload`` on ``stack`` and time it.

    With a :class:`~hostclock.HostClock`, reference slices run at the
    phase's start and end and between iterations, requests or rungs, and
    every time in the phase is then converted to reference seconds.
    """
    from drivers import closed_loop, open_loop, run_offline
    from stack import generation_config
    from stats import Rung

    config = generation_config(workload.max_new_tokens)
    between = host.maybe_slice if host else None
    burst = host.burst if host else (lambda: None)
    phase = Phase(stack)
    rung_starts = []
    burst()
    start = clock()
    if workload.name == "offline_decode":
        # Whole repetitions of the request set: a fixed count, or until
        # ``seconds`` have passed (the last one may run past them).
        done = 0
        while done < reps if reps else clock() - start < seconds:
            phase.records += run_offline(stack.manager, inputs["prompts"],
                                         config, between)
            done += 1
    elif workload.name == "online_chat":
        async def ladder():
            await stack.gateway.start()
            try:
                index = 0
                for (rate, offsets), prompts in zip(inputs["schedule"],
                                                    inputs["rung_prompts"]):
                    burst()
                    begin = clock() + 0.005
                    records = await open_loop(stack.gateway, prompts, offsets,
                                              config, begin, index)
                    index += len(records)
                    rung_starts.append(begin)
                    phase.rungs.append(Rung(rate, records, 0.0))
                    phase.records += records
            finally:
                await stack.gateway.stop()

        asyncio.run(ladder())
    else:
        async def stream():
            await stack.gateway.start()
            try:
                phase.records += await closed_loop(
                    stack.gateway, inputs["prompts"], config, seconds,
                    between)
            finally:
                await stack.gateway.stop()

        asyncio.run(stream())
    end = clock()
    burst()
    if host:
        convert = host.converter()
        for record in phase.records:
            record.due, record.sent = convert(record.due), convert(record.sent)
            record.times = [convert(t) for t in record.times]
        start, end = convert(start), convert(end)
        rung_starts = [convert(t) for t in rung_starts]
    for rung, begin in zip(phase.rungs, rung_starts):
        rung.window = max((r.times[-1] for r in rung.records if r.times),
                          default=begin) - begin
    return phase.close(start, end)


def make_inputs(workload, seed, seconds):
    import workloads as wl

    if workload.name == "offline_decode":
        return {"prompts": wl.prompts(workload, seed, workload.requests)}
    if workload.name == "online_chat":
        schedule = wl.ladder_schedule(seed, seconds)
        total = sum(len(offsets) for _, offsets in schedule)
        prompts = wl.prompts(workload, seed, total)
        rung_prompts, at = [], 0
        for _, offsets in schedule:
            rung_prompts.append(prompts[at:at + len(offsets)])
            at += len(offsets)
        return {"schedule": schedule, "rung_prompts": rung_prompts}
    # Closed loop: far more prompts than one client can send in the window.
    return {"prompts": wl.prompts(workload, seed, int(100 * seconds) + 200)}


def timed_setup(workload, speculative=True, repeats=SETUP_REPEATS,
                host=None):
    """Build the stack ``repeats`` times, each ending with one warm-up
    request; returns the last stack, every build time in reference
    seconds (host seconds without ``host``) and every one in host
    seconds.  Each build is bracketed by reference slices."""
    from stack import build_stack, generation_config
    from drivers import closed_loop, run_offline
    import workloads as wl

    config = generation_config(workload.max_new_tokens)
    warm = [wl.warmup_prompt(workload)]
    gateway = workload.name != "offline_decode"
    times, raw, stack = [], [], None
    for _ in range(repeats):
        if host:
            host.burst()
        start = clock()
        stack = build_stack(ZOO_DIR, workload.batch, gateway,
                            speculative=speculative)
        if gateway:
            async def warm_up():
                await stack.gateway.start()
                try:
                    await closed_loop(stack.gateway, warm, config, 0.0)
                finally:
                    await stack.gateway.stop()

            asyncio.run(warm_up())
        else:
            run_offline(stack.manager, warm, config)
        end = clock()
        raw.append(end - start)
        if host:
            host.burst()
            times.append(host.elapsed(start, end))
        else:
            times.append(end - start)
    return stack, times, raw


# -- metrics ------------------------------------------------------------------


def end_to_end(workload, phase, setup_times, costs):
    from statistics import median

    from stats import (goodput, good_per_second, meets_slo, percentile,
                       price_iterations, segments, window)
    import workloads as wl

    limits = (wl.TTFT_LIMIT_S, wl.TPOT_LIMIT_S)

    def latencies(records):
        timed = [r for r in records if r.completed]
        ttft = [r.ttft * 1e3 for r in timed]
        tpot = [r.tpot * 1e3 for r in timed]
        return {"ttft_ms_p50": percentile(ttft, 0.5),
                "ttft_ms_p90": percentile(ttft, 0.9),
                "tpot_ms_p50": percentile(tpot, 0.5),
                "tpot_ms_p90": percentile(tpot, 0.9)}

    if workload.name == "online_chat":
        figures = latencies(phase.rungs[len(phase.rungs) // 2].records)
        figures["tok_s"] = phase.tokens / phase.wall
        best = goodput(phase.rungs, *limits)
        figures["goodput_rps"] = (good_per_second(best, *limits) if best
                                  else 0.0)
    else:
        # Each figure is the median over segments of the phase (offline
        # repetitions, or blocks of closed-loop requests), so a host stall
        # of a few seconds moves one segment, not the run's figures.
        per_segment = []
        for block in segments(phase.records,
                              workload.requests or wl.SEGMENT_REQUESTS):
            seconds = window(block)
            figures = latencies(block)
            figures["tok_s"] = sum(len(r.tokens) for r in block
                                   if r.completed) / seconds
            if workload.name == "single_stream":
                good = sum(meets_slo(r, *limits) for r in block)
            else:
                good = sum(r.completed for r in block)  # no latency limit
            figures["goodput_rps"] = good / seconds
            per_segment.append(figures)
        figures = {name: median(f[name] for f in per_segment)
                   for name in per_segment[0]}
    modeled = price_iterations(*costs, phase.sessions, phase.stats)
    lost = sum(1 for r in phase.records if not r.completed)
    return {
        "setup_s": median(setup_times),
        "modeled_tok_s": phase.tokens / modeled.total,
        **figures,
        "served_frac": 1.0 - lost / len(phase.records),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced, untraced, incremental, recorder, costs):
    from stats import mean, percentile, price_iterations
    from spans import in_steps, ledger, self_times

    spans = recorder.spans
    selfs = self_times(spans)
    dur = [s[2] - s[1] for s in spans]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    steps = named("manager.step")
    n_steps = len(steps)
    verify = named("verify")
    ssm_in_steps = in_steps(spans, "model.ssm.")
    llm_in_steps = in_steps(spans, "model.llm.")
    blocks_in_steps = in_steps(spans, "model.llm.forward_masked_blocks")

    def outermost(prefix):
        return [i for i, s in enumerate(spans) if s[0].startswith(prefix)
                and (s[3] < 0 or not spans[s[3]][0].startswith(prefix))]

    llm_outer = outermost("model.llm.")
    ssm_outer = outermost("model.ssm.")

    submits = {}
    for i in named("manager.submit"):
        submits[spans[i][4]] = spans[i][1]
    waits = [(submits[s[5]["stream"].request_id] - s[1]) * 1e3
             for s in (spans[i] for i in named("gateway.submit"))
             if s[5]["stream"].request_id in submits]

    traces = [t for log in traced.sessions for t in log.steps]
    modeled = price_iterations(*costs, traced.sessions, traced.stats)
    h_spec = sum(dur[i] for i in ssm_outer)
    h_verify = sum(dur[i] for i in verify)
    book = ledger(spans, traced.start, traced.end)
    busy = [s for s in traced.stats if s.batch_size]
    late = [r.lateness * 1e3 for r in traced.records if not r.rejected]

    def latency(phase):
        return mean([r.latency for r in phase.records if r.completed])

    metrics = {
        "serving.queue_wait_ms_p50": percentile(waits, 0.5) if waits else 0.0,
        "serving.queue_wait_ms_p90": percentile(waits, 0.9) if waits else 0.0,
        "serving.admit_ms_mean": mean([dur[i] for i in named(
            "manager.admit")]) * 1e3,
        "serving.step_ms_p50": percentile([dur[i] for i in steps], 0.5) * 1e3,
        "serving.step_ms_p90": percentile([dur[i] for i in steps], 0.9) * 1e3,
        "serving.step_self_ms_mean": mean([selfs[i] for i in steps]) * 1e3,
        "serving.batch_occupancy_mean": mean([s.batch_size for s in busy]),
        "serving.loop_late_ms_p90": percentile(late, 0.9),
        "serving.rejected": sum(r.rejected for r in traced.records),
        "serving.peak_queue_depth": max(recorder.queue_samples, default=0),
        "speculate.ssm_ms_per_step":
            sum(dur[i] for i in ssm_in_steps) / n_steps * 1e3,
        "speculate.ssm_calls_per_step": len(ssm_in_steps) / n_steps,
        "speculate.nodes_per_request_step": mean([t.tree_size
                                                  for t in traces]),
        "speculate.accept_ratio": sum(t.tokens_emitted - 1 for t in traces)
        / sum(t.tree_size - 1 for t in traces),
        "speculate.tokens_per_step": mean([t.tokens_emitted for t in traces]),
        "speculate.host_speedup_vs_incremental":
            latency(incremental) / latency(untraced),
        "verify.ms_per_step": mean([dur[i] for i in verify]) * 1e3,
        "verify.self_ms_per_step": mean([selfs[i] for i in verify]) * 1e3,
        "verify.rows_per_call": mean([spans[i][5]["rows"] for i in verify]),
        "verify.ms_per_row": h_verify * 1e3 / sum(
            spans[i][5]["rows"] for i in verify),
        "model.llm.forward_ms_per_step":
            sum(dur[i] for i in llm_in_steps) / n_steps * 1e3,
        "model.llm.calls_per_step": len(llm_in_steps) / n_steps,
        "model.llm.prefill_ms_p50": percentile(
            [dur[i] for i in llm_outer
             if spans[i][0] == "model.llm.prefill"], 0.5) * 1e3,
        "model.llm.gflop_s": sum(spans[i][5]["flops"] for i in named(
            "model.llm.forward_masked_blocks"))
        / sum(dur[i] for i in llm_outer) / 1e9,
        "model.llm.mb_moved_per_step": sum(
            spans[i][5]["bytes"] for i in blocks_in_steps) / n_steps / 1e6,
        "kv.arena_util_peak": max(recorder.arena_samples),
        "kv.arena_util_mean": mean(recorder.arena_samples),
        "kv.preemptions": sum(len(s.preempted_ids) for s in traced.stats),
        "cluster.modeled_ms_per_step": modeled.decode / modeled.steps * 1e3,
        "cluster.modeled_speculate_ms_per_step":
            modeled.speculate / modeled.steps * 1e3,
        "cluster.modeled_verify_ms_per_step":
            modeled.verify / modeled.steps * 1e3,
        "cluster.host_over_modeled": traced.wall / modeled.total,
        "cluster.host_over_modeled.speculate": h_spec / modeled.total,
        "cluster.host_over_modeled.verify": h_verify / modeled.total,
        "cluster.host_over_modeled.rest":
            (traced.wall - h_spec - h_verify) / modeled.total,
        "obs.trace_overhead": 1.0 - (traced.tokens / traced.wall)
        / (untraced.tokens / untraced.wall),
    }
    for layer, seconds in book.items():
        metrics[f"ledger.{layer}_share"] = seconds / traced.wall
    return metrics


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("REPRO_SANITIZE"):
        fail("REPRO_SANITIZE is set; the sanitizer checks the environment "
             "on every tensor_contract call and would time another program")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        fail(f"no program sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = BLAS_THREADS

    import numpy as np

    from repro.engine.incremental import IncrementalEngine
    from stack import cost_models, ensure_zoo, generation_config
    from hostclock import HostClock
    from stats import check_outputs
    from spans import SpanRecorder, instrument
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; "
             f"expected one of {sorted(wl.WORKLOADS)}")
    train_s = ensure_zoo(ZOO_DIR)
    env = environment(np)
    inputs = make_inputs(workload, args.seed, args.seconds)
    costs = cost_models()

    # End-to-end figures are in reference seconds (hostclock.py); the
    # traced run's per-layer figures stay in host seconds.
    host = None if args.trace else HostClock(workload.in_flight)
    # Each build's work ends with one warm-up request, decoded alone, so
    # builds are timed against the one-row kernel on every workload.
    stack, setup_times, setup_raw = timed_setup(
        workload, host=None if args.trace else HostClock(1))
    phases = []
    if not args.trace:
        phases.append(run_phase(stack, workload, inputs, args.seconds,
                                host=host))
    else:
        half = args.seconds / 2
        untraced = run_phase(stack, workload, inputs, half, reps=1)
        recorder = SpanRecorder()
        instrument(recorder, stack)
        try:
            traced = run_phase(stack, workload, inputs, half, reps=1)
        finally:
            recorder.unwrap()
        baseline, _, _ = timed_setup(workload, speculative=False, repeats=1)
        incremental = run_phase(baseline, workload, inputs, half, reps=1)
        phases = [untraced, traced, incremental]

    references = {}
    engine = IncrementalEngine(stack.llm)
    config = generation_config(workload.max_new_tokens)
    problems, failed = [], 0
    for phase in phases:
        for record in phase.records:
            if record.prompt_key not in references:
                prompt = np.frombuffer(record.prompt_key, dtype=np.int64)
                references[record.prompt_key] = engine.generate(
                    prompt, config).tokens
        found = check_outputs(phase.records, references,
                              workload.max_new_tokens)
        problems += [message for _, message in found]
        bad = {id(record) for record, _ in found}
        bad |= {id(r) for r in phase.records if not r.completed}
        failed += len(bad)
    attempted = sum(len(p.records) for p in phases)

    if args.trace:
        metrics = per_layer(untraced=phases[0], traced=phases[1],
                            incremental=phases[2], recorder=recorder,
                            costs=costs)
        wanted = declared["per_layer"]
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.dump(os.path.join(
            OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl"),
            {"workload": workload.name, "seed": args.seed, "env": env,
             "traced_wall_s": phases[1].wall})
    else:
        metrics = end_to_end(workload, phases[0], setup_times, costs)
        wanted = declared["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        unlisted = sorted(set(metrics) - set(names))
        raise AssertionError(f"metrics differ from BENCHMARK.json: missing "
                             f"{missing}, unlisted {unlisted}")
    info = {"env": env, "zoo_train_s": train_s, "setup_times_s": setup_times,
            "setup_host_s": setup_raw, "requests_timed": attempted,
            "problems": problems[:20]}
    if host:
        from statistics import median, quantiles

        slow = host.slowdowns()
        info["host_slowdown"] = {"median": median(slow),
                                 "quartiles": quantiles(slow, n=4),
                                 "slices": len(slow)}
    print(json.dumps({"info": info}))
    for problem in problems[:20]:
        print(f"servebench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
