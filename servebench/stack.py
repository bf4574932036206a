"""Building the system under test: zoo pair, arena, backend, manager,
gateway.  The same builder serves every workload; only batch size and
whether a gateway fronts the manager differ.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster import (
    LatencyModel,
    ParallelPlan,
    paper_model,
    single_node_cluster,
)
from repro.engine.generation import GenerationConfig
from repro.model.arena import BatchArena
from repro.model.zoo import ModelZoo, ZooSpec
from repro.serving import (
    FusedBackend,
    GatewayConfig,
    IncrementalSession,
    RequestManager,
    ServingGateway,
    SpeculativeSession,
    TenantConfig,
)
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator

from stats import SessionLog

#: Gateway queue bound per tenant.  Deep enough that the ladder's top rung
#: misses on latency rather than being refused at seed; a refusal is a
#: failed request.
GATEWAY_QUEUE_DEPTH = 256


def generation_config(max_new_tokens: int) -> GenerationConfig:
    """Every request is greedy and runs its full token budget."""
    return GenerationConfig(max_new_tokens=max_new_tokens, stop_on_eos=False)


def ensure_zoo(cache_dir: str) -> Optional[float]:
    """Train the zoo pair into ``cache_dir`` unless it is already there.

    Returns the one-off training seconds, or ``None`` when the checkpoint
    was already cached.  Training happens in a private directory that is
    renamed into place, so an interrupted run never leaves a truncated
    checkpoint behind for the next one to load.
    """
    spec = ZooSpec()
    zoo = ModelZoo(cache_dir)
    paths = [zoo._checkpoint_path(spec, role) for role in ("llm", "ssm")]
    if all(os.path.exists(p) for p in paths):
        return None
    os.makedirs(cache_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix="train-", dir=cache_dir)
    try:
        start = time.perf_counter()
        ModelZoo(staging).trained_pair(spec)
        seconds = time.perf_counter() - start
        for path in paths:
            os.replace(os.path.join(staging, os.path.basename(path)), path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return seconds


def cost_models():
    """LLaMA-7B verifier and LLaMA-68M drafter on one A10."""
    cluster = single_node_cluster()
    plan = ParallelPlan(tensor_parallel=1, pipeline_stages=1)
    return (LatencyModel(paper_model("llama-7b"), plan, cluster),
            LatencyModel(paper_model("llama-68m"), plan, cluster))


@dataclass
class Stack:
    """One built serving stack and the handles the benchmark reads."""

    llm: object
    ssm: object
    arena: BatchArena
    manager: RequestManager
    backend: Optional[FusedBackend]
    gateway: Optional[ServingGateway]
    #: Every speculative session the factory built, for modeled pricing.
    sessions: List[SessionLog] = field(default_factory=list)


def build_stack(cache_dir: str, batch: int, with_gateway: bool,
                speculative: bool = True, models=None) -> Stack:
    """Load the cached pair and assemble arena → backend → manager
    (→ gateway).  ``speculative=False`` builds the incremental baseline:
    :class:`IncrementalSession` over the same arena layout, stepped per
    session."""
    llm, ssm = models or ModelZoo(cache_dir).trained_pair(ZooSpec())
    arena = BatchArena(llm.config, max_requests=batch)
    sessions: List[SessionLog] = []

    def spec_factory(request):
        session = SpeculativeSession(
            request, llm,
            lambda: Speculator([ssm], ExpansionConfig.paper_default()),
            cache_factory=arena.new_sequence,
        )
        sessions.append(SessionLog(manager.iteration, len(request.prompt),
                                   session.steps))
        return session

    def incr_factory(request):
        return IncrementalSession(request, llm,
                                  cache_factory=arena.new_sequence)

    backend = FusedBackend(llm, mode="block") if speculative else None
    manager = RequestManager(spec_factory if speculative else incr_factory,
                             max_batch_size=batch, backend=backend)
    gateway = None
    if with_gateway:
        gateway = ServingGateway(manager, GatewayConfig(
            default_tenant_template=TenantConfig(
                name="default", max_queue_depth=GATEWAY_QUEUE_DEPTH)))
    return Stack(llm, ssm, arena, manager, backend, gateway, sessions)
