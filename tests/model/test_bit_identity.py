"""The lean decode primitives against the formulas they replaced.

LayerNorm, the linear bias add, attention and the draft softmax were
rewritten to do their arithmetic once and in place.  Each rewrite runs the
same IEEE operations in the same order as the out-of-place formula below
it, so outputs must match bit for bit (``assert_array_equal``, no
tolerance).  GELU is the one deliberate exception: its cube is
``x * (x * x)`` instead of ``np.power``, so it is pinned bit-identical to
that formula and only close (within 1e-15) to the ``np.power`` one.
"""

import numpy as np
import pytest

from repro.model.attention import (
    block_diagonal_attention,
    cross_mask,
    scaled_dot_attention,
)
from repro.model.layers import (
    gelu_backward,
    gelu_forward,
    layernorm_forward,
    linear_forward,
    stable_softmax,
)

_C = np.sqrt(2.0 / np.pi)

DTYPES = [np.float64, np.float32]


def layernorm_reference(x, scale, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mu) * inv_std
    return scale * x_hat + bias, (x_hat, inv_std, scale)


def attention_reference(q, k, v, mask):
    scores = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(q.shape[-1])
    scores = scores + mask[None, :, :]
    weights = stable_softmax(scores, axis=-1)
    return np.einsum("hqk,khd->qhd", weights, v)


def gelu_cube_reference(x):
    return 0.5 * x * (1.0 + np.tanh(_C * (x + 0.044715 * (x * (x * x)))))


def gelu_power_reference(x):
    return 0.5 * x * (1.0 + np.tanh(_C * (x + 0.044715 * x**3)))


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(7, 48), (2, 5, 16), (1, 192)])
    def test_output_and_cache_match_mean_var_formula(self, rng, shape):
        x = rng.normal(loc=2.5, scale=3.0, size=shape)
        scale = rng.normal(size=shape[-1])
        bias = rng.normal(size=shape[-1])
        out, (x_hat, inv_std, cache_scale) = layernorm_forward(x, scale, bias)
        ref_out, (ref_hat, ref_inv, _) = layernorm_reference(x, scale, bias)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(x_hat, ref_hat)
        np.testing.assert_array_equal(inv_std, ref_inv)
        assert cache_scale is scale

    def test_float32_matches_and_stays_float32(self, rng):
        x = rng.normal(loc=1.0, size=(9, 32)).astype(np.float32)
        scale = rng.normal(size=32).astype(np.float32)
        bias = rng.normal(size=32).astype(np.float32)
        out, _ = layernorm_forward(x, scale, bias)
        ref_out, _ = layernorm_reference(x, scale, bias)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, ref_out)

    def test_input_is_not_modified(self, rng):
        x = rng.normal(size=(4, 8))
        before = x.copy()
        layernorm_forward(x, np.ones(8), np.zeros(8))
        np.testing.assert_array_equal(x, before)


class TestLinear:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_out_buffer_matches_allocating_path(self, rng, dtype):
        x = rng.normal(size=(11, 24)).astype(dtype)
        w = rng.normal(size=(24, 40)).astype(dtype)
        b = rng.normal(size=40).astype(dtype)
        plain, _ = linear_forward(x, w, b)
        buf = np.full((11, 40), np.nan, dtype=dtype)
        staged, _ = linear_forward(x, w, b, out=buf)
        assert staged is buf
        np.testing.assert_array_equal(plain, x @ w + b)
        np.testing.assert_array_equal(staged, plain)


class TestAttention:
    @pytest.mark.parametrize("n_q,prior", [(1, 9), (6, 0), (5, 12)])
    def test_matches_out_of_place_formula(self, rng, n_q, prior):
        n_k = prior + n_q
        q = rng.normal(size=(n_q, 4, 8))
        k = rng.normal(size=(n_k, 4, 8))
        v = rng.normal(size=(n_k, 4, 8))
        mask = cross_mask(n_q, n_k, prior, dtype="float64")
        plain = scaled_dot_attention(q, k, v, mask)
        buf = np.full_like(q, np.nan)
        staged = scaled_dot_attention(q, k, v, mask, out=buf)
        assert staged is buf
        ref = attention_reference(q, k, v, mask)
        np.testing.assert_array_equal(plain, ref)
        np.testing.assert_array_equal(staged, ref)

    def test_block_diagonal_writes_each_block_in_place(self, rng):
        blocks = [(3, 5), (1, 7), (4, 0)]
        q = rng.normal(size=(sum(n for n, _ in blocks), 2, 8))
        kvs, masks, offsets = [], [], [0]
        for n_q, prior in blocks:
            kvs.append((rng.normal(size=(prior + n_q, 2, 8)),
                        rng.normal(size=(prior + n_q, 2, 8))))
            masks.append(cross_mask(n_q, prior + n_q, prior, dtype="float64"))
            offsets.append(offsets[-1] + n_q)
        buf = np.full_like(q, np.nan)
        out = block_diagonal_attention(q, kvs, masks, offsets, out=buf)
        assert out is buf
        for i, ((keys, values), mask) in enumerate(zip(kvs, masks)):
            lo, hi = offsets[i], offsets[i + 1]
            np.testing.assert_array_equal(
                out[lo:hi], attention_reference(q[lo:hi], keys, values, mask))


class TestGelu:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scratch_path_matches_allocating_path(self, rng, dtype):
        x = rng.normal(scale=2.0, size=(13, 64)).astype(dtype)
        plain, (plain_x, plain_t) = gelu_forward(x)
        out = np.full_like(x, np.nan)
        tanh_out = np.full_like(x, np.nan)
        staged, (staged_x, staged_t) = gelu_forward(x, out=out,
                                                    tanh_out=tanh_out)
        assert staged is out and staged_t is tanh_out and staged_x is x
        assert plain.dtype == dtype
        np.testing.assert_array_equal(staged, plain)
        np.testing.assert_array_equal(staged_t, plain_t)

    def test_matches_cube_formula_bitwise(self, rng):
        x = rng.normal(scale=2.0, size=(316, 192))
        out, (_, t) = gelu_forward(x)
        np.testing.assert_array_equal(out, gelu_cube_reference(x))
        np.testing.assert_array_equal(
            t, np.tanh(_C * (x + 0.044715 * (x * (x * x)))))

    def test_close_to_power_formula(self, rng):
        # A last-place change in the cube moves the output by at most an
        # ulp or so.  The absolute term covers the negative tail, where
        # 1 + tanh(...) cancels toward zero and the same sub-1e-15 change
        # is a larger relative one.
        x = rng.normal(size=(316, 192))
        out, _ = gelu_forward(x)
        np.testing.assert_allclose(out, gelu_power_reference(x),
                                   rtol=1e-15, atol=1e-15)

    def test_backward_matches_finite_difference(self, rng):
        x = rng.normal(size=(6, 7))
        upstream = rng.normal(size=(6, 7))
        eps = 1e-6
        _, cache = gelu_forward(x)
        dx = gelu_backward(upstream, cache)
        numeric = ((gelu_forward(x + eps)[0] - gelu_forward(x - eps)[0])
                   / (2 * eps)) * upstream
        np.testing.assert_allclose(dx, numeric, atol=1e-7)


class TestDraftSoftmax:
    """The packed scorer's per-level softmax vs one call per row."""

    @pytest.mark.parametrize("temperatures", [
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [0.0, 0.0, 0.7, 0.7, 2.0],
    ], ids=["unit", "mixed_with_zero"])
    def test_level_matches_per_row(self, rng, temperatures):
        rows = rng.normal(scale=4.0, size=(len(temperatures), 97))
        per_row = [stable_softmax(rows[i] / max(t, 1e-8))
                   for i, t in enumerate(temperatures)]
        column = np.array([[max(t, 1e-8)] for t in temperatures])
        level = rows / column
        stable_softmax(level, out=level)
        for i, expected in enumerate(per_row):
            np.testing.assert_array_equal(level[i], expected)
