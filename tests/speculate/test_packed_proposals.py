"""Packed draft scoring's per-level softmax against one softmax per row.

The packed scorer turns a whole tree level of draft logits into proposal
distributions with one row-wise softmax and a per-row temperature column.
Recording the logits each fused level pass returns and recomputing every
node's proposal row by row (the coupled SSM's perturbation replayed per
row, then ``stable_softmax(row / max(temperature, 1e-8))``) must give the
recorded proposals bit for bit, at unit and at zero temperature.
"""

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.pipeline import DecodeState
from repro.model.coupled import CoupledSSM
from repro.model.layers import stable_softmax
from repro.model.transformer import TransformerLM
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.packed import PackedSpeculator
from repro.speculate.speculator import Speculator
from tests.conftest import SMALL_CONFIG, make_prompt

CONFIG = ExpansionConfig((2, 1, 3, 1))


def no_fallback(state):
    raise AssertionError("packed scorer fell back to the per-session loop")


@pytest.mark.parametrize("temperature", [1.0, 0.0], ids=["t1", "t0"])
@pytest.mark.parametrize("kind", ["coupled", "plain"])
def test_level_softmax_matches_per_row(llm, monkeypatch, kind, temperature):
    if kind == "coupled":
        ssm = CoupledSSM(llm, alignment=0.8, seed=5, noise_scale=2.0)
        base = llm
    else:
        ssm = base = TransformerLM(SMALL_CONFIG, seed=9)
    states = []
    for i in range(3):
        rng = np.random.default_rng(40 + i)
        states.append(DecodeState(
            llm, make_prompt(rng, length=4 + i),
            GenerationConfig(max_new_tokens=8, seed=i),
            speculator=Speculator([ssm], CONFIG, temperature=temperature),
        ))
    contexts = []
    for state in states:
        _, cache, _ = state.speculator.packed_expansion_state()
        contexts.append(list(cache.context) if kind == "coupled" else None)

    levels = []
    forward = base.forward_masked_blocks

    def recording_forward(*args, **kwargs):
        logits = forward(*args, **kwargs)
        levels.append(logits.copy())
        return logits

    monkeypatch.setattr(base, "forward_masked_blocks", recording_forward)
    trees = PackedSpeculator().speculate_batch(states, no_fallback)
    assert len(levels) == CONFIG.depth

    for level, logits in enumerate(levels):
        row_index = 0
        for tree, context in zip(trees, contexts):
            frontier = [n for n in range(len(tree))
                        if tree.nodes[n].depth == level]
            for node in frontier:
                row = logits[row_index]
                row_index += 1
                if context is not None:
                    path = [tree.nodes[n].token for n in tree.path_to(node)]
                    row = ssm._perturb(row, context + path)
                expected = stable_softmax(
                    np.asarray(row, dtype=np.float64)
                    / max(temperature, 1e-8))
                np.testing.assert_array_equal(
                    tree.nodes[node].proposals[0], expected)
        assert row_index == logits.shape[0]
