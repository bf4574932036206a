"""Packed cross-request draft scoring (level-synchronous tree expansion).

The per-session speculation loop (:func:`repro.speculate.expansion.
expand_token_tree`) drives its SSM depth-first: one ``decode`` call — one
``(1, d) @ (d, 3d)`` GEMM per layer — per tree node per request, with cache
snapshot/restore around every branch.  On a serving batch this is the last
per-session hot loop left: a batch of ``B`` requests speculating ``m``-deep
trees issues ``O(B · nodes)`` tiny GEMMs per tick.

This module replaces that loop with **level-synchronous packed expansion**
for the deterministic (greedy/top-k) case:

* every request's frontier at depth ``d`` is scored in **one**
  :meth:`~repro.model.transformer.TransformerLM.forward_masked_blocks` call
  over the shared SSM — the QKV/MLP/LM-head GEMMs batch across all live
  requests and all sibling branches, so a tick issues ``O(depth)`` GEMM
  rounds instead of ``O(B · nodes)``;
* instead of snapshot/restore replay, all tree rows stay in the SSM cache
  under a per-level topology mask (each frontier node attends to the
  verified prefix plus its own ancestors), and the cache is truncated back
  to the prefix once the tree is built.

Bit-equivalence rests on the tree-attention property the repo already
tests (Definition 4.1): scoring a node under the topology-aware causal
mask is bit-identical to sequentially decoding its root-to-node path, and
total GEMM FLOPs are unchanged (the packing is over the ``m`` axis, which
:func:`repro.model.perf.add_gemm` is linear in).  Proposal distributions,
tree shape, and child ordering therefore match the depth-first loop
exactly; only node *numbering* differs (BFS insertion order), which no
consumer observes — verification runs over the structural DFS
linearization.

Scope (everything else falls back to the per-session loop, counted by
``repro.speculate.packed.fallbacks``):

* deterministic expansion only (stochastic proposals consume per-request
  RNG draws in DFS order; replaying that order defeats the packing);
* single static-config SSM per speculator (no merge/adaptive);
* SSMs that are a :class:`TransformerLM` or a
  :class:`~repro.model.coupled.CoupledSSM` (whose perturbation is a pure
  function of the path context and is replayed per node);
* requests whose SSM cache can hold the whole scored frontier at once
  (``prefix + scored-node bound <= capacity``); near end-of-context the
  depth-first loop's per-branch capacity check is the right tool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.model.attention import NEG_INF, MaskScratch
from repro.model.coupled import CoupledSSM
from repro.model.layers import stable_softmax
from repro.model.sampling import top_k_tokens
from repro.model.scratch import ScratchArena
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY
from repro.speculate.expansion import ExpansionConfig
from repro.tree.token_tree import TokenTree

_PACKED_REQUESTS = REGISTRY.counter(
    "repro.speculate.packed.requests",
    help="requests speculated via packed cross-request expansion")
_PACKED_LEVELS = REGISTRY.counter(
    "repro.speculate.packed.levels",
    help="fused level-expansion passes issued")
_PACKED_FALLBACKS = REGISTRY.counter(
    "repro.speculate.packed.fallbacks",
    help="requests that fell back to the per-session expansion loop")


def scored_node_bound(config: ExpansionConfig) -> int:
    """Upper bound on nodes packed expansion scores (appends) for ``config``.

    Nodes at depths ``0 .. m-1`` are scored (the deepest level is proposed
    but never expanded): ``1 + k1 + k1·k2 + … + k1⋯k_{m-1}``.
    """
    total = 1
    frontier = 1
    for width in config.widths[:-1]:
        frontier *= width
        total += frontier
    return total


class _Slot:
    """Per-request expansion state inside one packed group."""

    def __init__(self, state, ssm, cache, config: ExpansionConfig,
                 temperature: float):
        self.state = state
        self.ssm = ssm
        self.config = config
        self.temperature = temperature
        if isinstance(ssm, CoupledSSM):
            self.base_cache = cache.base_cache
            self.entry_context: Optional[List[int]] = list(cache.context)
        else:
            self.base_cache = cache
            self.entry_context = None
        self.prefix = self.base_cache.length
        self.tree = TokenTree(state.pending)
        # Cache row (0-based among appended tree rows) of each scored node.
        self.row_of: Dict[int, int] = {}
        self.appended = 0
        # Nodes to score at the current level (all share depth == level).
        self.frontier: List[int] = [0]

    def live_at(self, level: int) -> bool:
        return bool(self.frontier) and level < self.config.depth

    def path_rows(self, node: int) -> List[int]:
        """Appended-row indices of ``node``'s scored ancestors (root..parent)."""
        return [self.row_of[n] for n in self.tree.path_to(node)[:-1]]

    def context_for(self, node: int) -> List[int]:
        """Token context the coupled perturbation is keyed by at ``node``."""
        path = self.tree.path_to(node)
        return self.entry_context + [self.tree.nodes[n].token for n in path]

    def finish(self) -> TokenTree:
        """Truncate the SSM cache back to the verified prefix."""
        self.base_cache.truncate(self.prefix)
        return self.tree


class PackedSpeculator:
    """Cross-request packed draft scoring with per-request fallback.

    One instance lives on the :class:`~repro.engine.pipeline.DecodePipeline`
    and persists its scratch arenas across ticks, so the steady-state
    speculate phase allocates no tracked buffers (masks and index vectors
    come from the same grow-once :class:`ScratchArena` discipline as the
    verify phase).
    """

    def __init__(self):
        self._arenas: "WeakKeyDictionary[TransformerLM, ScratchArena]" = (
            WeakKeyDictionary()
        )
        self._mask_scratches: (
            "WeakKeyDictionary[TransformerLM, List[MaskScratch]]"
        ) = WeakKeyDictionary()

    # -- eligibility -----------------------------------------------------------------

    def _slot_for(self, state, plan=None) -> Optional[
            Tuple[TransformerLM, _Slot]]:
        """``(base model, slot)`` when ``state`` is packed-eligible."""
        spec = state.speculator
        if spec is None or not state.sampling.greedy:
            return None
        packed = spec.packed_expansion_state(plan)
        if packed is None:
            return None
        ssm, cache, config = packed
        if isinstance(ssm, CoupledSSM):
            base = ssm.base
        elif isinstance(ssm, TransformerLM):
            base = ssm
        else:
            return None
        slot = _Slot(state, ssm, cache, config, spec.temperature)
        if slot.prefix + scored_node_bound(config) > slot.base_cache.capacity:
            return None
        return base, slot

    # -- the packed loop -------------------------------------------------------------

    def speculate_batch(self, states: Sequence, fallback,
                        plan=None) -> List[TokenTree]:
        """One tree per state; ineligible states run ``fallback(state)``.

        Args:
            states: Unfinished decode states to speculate for.
            fallback: ``state -> TokenTree`` — the per-session path
                (also used for incremental states' one-node trees).
            plan: Optional per-tick :class:`~repro.speculate.planner.
                TreePlan` applied to every packed slot (the fallback path
                applies the same plan inside ``Speculator.speculate``, so
                both paths build identical trees).
        """
        trees: List[Optional[TokenTree]] = [None] * len(states)
        groups: Dict[int, Tuple[TransformerLM, List[Tuple[int, _Slot]]]] = {}
        for i, state in enumerate(states):
            eligible = self._slot_for(state, plan)
            if eligible is None:
                if state.speculator is not None:
                    _PACKED_FALLBACKS.inc()
                trees[i] = fallback(state)
                continue
            base, slot = eligible
            groups.setdefault(id(base), (base, []))[1].append((i, slot))
        for base, members in groups.values():
            self._expand_group(base, [slot for _, slot in members])
            for i, slot in members:
                trees[i] = slot.tree
                slot.state.speculator.record_packed_speculation(slot.tree)
            _PACKED_REQUESTS.inc(len(members))
        return trees

    def _expand_group(self, base: TransformerLM,
                      slots: List[_Slot]) -> None:
        """Level-synchronous expansion of every slot against ``base``."""
        arena = self._arenas.get(base)
        if arena is None:
            arena = ScratchArena()
            self._arenas[base] = arena
            self._mask_scratches[base] = []
        scratches = self._mask_scratches[base]
        level = 0
        while True:
            live = [slot for slot in slots if slot.live_at(level)]
            if not live:
                break
            self._score_level(base, arena, scratches, live, level)
            level += 1
        for slot in slots:
            slot.finish()

    def _score_level(self, base: TransformerLM, arena: ScratchArena,
                     scratches: List[MaskScratch], live: List[_Slot],
                     level: int) -> None:
        """Score every live slot's frontier in one fused pass, then expand."""
        _PACKED_LEVELS.inc()
        counts = [len(slot.frontier) for slot in live]
        offsets = [0]
        for count in counts:
            offsets.append(offsets[-1] + count)
        n_total = offsets[-1]
        tokens = arena.take("pk.tokens", (n_total,), np.intp)
        positions = arena.take("pk.positions", (n_total,), np.intp)
        while len(scratches) < len(live):
            scratches.append(MaskScratch(
                base.config.dtype, arena=arena,
                tag=f"pk.mask{len(scratches)}",
                bound=(0, base.config.max_seq_len),
            ))
        masks = []
        priors = []
        for b, slot in enumerate(live):
            lo = offsets[b]
            prior = slot.base_cache.length
            priors.append(prior)
            n_f = counts[b]
            mask = scratches[b].take(n_f, prior + n_f)
            # Frontier node j attends to the verified prefix, its scored
            # ancestors' rows, and itself — never to siblings or to other
            # branches' rows (the per-level topology-aware causal mask).
            mask[:, : slot.prefix] = 0.0
            mask[:, slot.prefix:] = NEG_INF
            for j, node in enumerate(slot.frontier):
                tokens[lo + j] = slot.tree.nodes[node].token
                positions[lo + j] = slot.prefix + level
                for row in slot.path_rows(node):
                    mask[j, slot.prefix + row] = 0.0
                mask[j, prior + j] = 0.0
            masks.append(mask)
        logits = base.forward_masked_blocks(
            tokens, positions, masks, [slot.base_cache for slot in live],
            priors=priors, scratch=arena,
        )
        # One row-wise softmax over every frontier row of the level.  The
        # array is fresh per level, never arena scratch: set_proposal keeps
        # a reference to each row, so reusing it would overwrite the
        # proposals of earlier levels and ticks.
        probs = np.empty((n_total, logits.shape[1]), dtype=np.float64)
        temperatures = arena.take("pk.temperatures", (n_total, 1),
                                  np.float64)
        for b, slot in enumerate(live):
            lo, hi = offsets[b], offsets[b + 1]
            temperatures[lo:hi] = max(slot.temperature, 1e-8)
            if slot.entry_context is None:
                probs[lo:hi] = logits[lo:hi]
                continue
            for j, node in enumerate(slot.frontier):
                # Replay the coupled perturbation the sequential loop
                # applies inside decode(); it is a pure function of
                # (seed, token context), so per-node replay is exact.
                probs[lo + j] = slot.ssm._perturb(logits[lo + j],
                                                  slot.context_for(node))
        probs /= temperatures
        stable_softmax(probs, out=probs)
        for b, slot in enumerate(live):
            lo = offsets[b]
            next_frontier: List[int] = []
            width = slot.config.widths[level]
            expandable = level + 1 < slot.config.depth
            for j, node in enumerate(slot.frontier):
                proposal = probs[lo + j]
                slot.tree.set_proposal(node, 0, proposal)
                slot.row_of[node] = slot.appended + j
                for candidate in top_k_tokens(proposal, width):
                    child = slot.tree.add_child(node, int(candidate),
                                                ssm_id=0)
                    if expandable:
                        next_frontier.append(child)
            slot.appended += counts[b]
            slot.frontier = next_frontier
