"""Network forward/backward checks against scalar-loop references and
central finite differences."""

import dataclasses
import hashlib
import itertools
import json
import math
import struct
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4xai import attribution, charfn, cli, engine, network, training


def make_params(channels=8, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return network.init(network.ArchDescriptor(channels), rng, dtype=dtype)


def random_input(seed=1):
    rng = np.random.default_rng(seed)
    board = engine.new_board()
    for _ in range(10):
        legal = board.legal_moves()
        board = engine.apply_move(board, int(legal[rng.integers(len(legal))]))
    return engine.encode(board).astype(np.float64)


# --- architecture bookkeeping ------------------------------------------------

def test_fc_widths_scale_with_channels():
    assert network.ArchDescriptor(512).fc_widths == (1024, 512, 512, 512, 512)
    assert network.ArchDescriptor(64).fc_widths == (128, 64, 64, 64, 64)
    assert network.ArchDescriptor(8).fc_widths == (16, 8, 8, 8, 8)
    assert min(network.ArchDescriptor(1).fc_widths) >= 8
    for w in network.ArchDescriptor(100).fc_widths:
        assert w % 8 == 0


def test_conv_spatial_dims():
    params = make_params(8)
    trace = network.forward(params, random_input())
    shapes = [a.shape[2:] for a in trace.conv_a]
    assert shapes == [(6, 7), (6, 7), (4, 5), (2, 3)]
    assert trace.flat.shape[1] == 6 * 8
    assert network.ArchDescriptor(8).flatten_size == 48
    # conv results are NCHW-shaped (n, C, H, W) at any batch size
    for n in (1, 5):
        trace = network.forward(params, np.stack([random_input(i) for i in range(n)]))
        expected = [(n, 8, h, w) for h, w in shapes]
        assert [z.shape for z in trace.conv_z] == expected
        assert [a.shape for a in trace.conv_a] == expected


def test_param_specs_order_and_shapes():
    arch = network.ArchDescriptor(8)
    specs = dict(arch.param_specs())
    assert specs["conv1_w"] == (8, 3, 3, 3)
    assert specs["conv2_w"] == (8, 8, 3, 3)
    assert specs["fc1_w"] == (16, 48)
    assert specs["policy_w"] == (7, 8)
    assert specs["value_w"] == (1, 8)
    names = [n for n, _ in arch.param_specs()]
    assert names[0] == "conv1_w" and names[-1] == "value_b"


# --- scalar reference forward ------------------------------------------------

def conv_scalar(x, w, b, pad):
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    oh, ow = h + 2 * pad - 2, wd + 2 * pad - 2
    out = np.zeros((n, cout, oh, ow))
    for bi in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = b[co]
                    for ci in range(cin):
                        for di in range(3):
                            for dj in range(3):
                                si, sj = i + di - pad, j + dj - pad
                                if 0 <= si < h and 0 <= sj < wd:
                                    acc += w[co, ci, di, dj] * x[bi, ci, si, sj]
                    out[bi, co, i, j] = acc
    return out


def test_forward_matches_scalar_reference():
    params = make_params(4, seed=3)
    x = random_input(4)[None]
    trace = network.forward(params, x)
    t = params.tensors
    a = x.astype(np.float64)
    for li, pad in enumerate(network.CONV_PADS, start=1):
        z = conv_scalar(a, t[f"conv{li}_w"], t[f"conv{li}_b"], pad)
        assert np.allclose(z, trace.conv_z[li - 1], atol=1e-10)
        a = np.maximum(z, 0.0)
    flat = a.reshape(1, -1)
    assert np.allclose(flat, trace.flat, atol=1e-10)
    h = flat
    for li in range(1, network.N_FC + 1):
        z = h @ t[f"fc{li}_w"].T + t[f"fc{li}_b"]
        h = np.maximum(z, 0.0)
        assert np.allclose(z, trace.fc_z[li - 1], atol=1e-10)
    logits = h @ t["policy_w"].T + t["policy_b"]
    e = np.exp(logits - logits.max())
    assert np.allclose(e / e.sum(), trace.policy, atol=1e-12)
    v = np.tanh((h @ t["value_w"].T + t["value_b"])[0, 0])
    assert np.allclose(v, trace.value[0], atol=1e-12)


def test_flatten_order_is_channel_major():
    # flat vector must be the C-order ravel of the last conv activation
    params = make_params(4, seed=5)
    trace = network.forward(params, random_input(6))
    assert np.array_equal(trace.flat[0], trace.conv_a[-1][0].ravel())


# --- conv primitives ------------------------------------------------------------

CONV_CASES = [  # (c_in, pad, input H, W): conv1 to conv4
    (3, 1, (6, 7)),
    (5, 1, (6, 7)),
    (5, 0, (6, 7)),
    (5, 0, (4, 5)),
]


def nhwc_backed(a):
    """The same values as the NCHW array ``a``, as a view of NHWC memory."""
    view = np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert not view.flags.c_contiguous
    return view


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in,pad,hw", CONV_CASES)
def test_conv_primitives_ignore_the_memory_layout(c_in, pad, hw, dtype):
    rng = np.random.default_rng(41)
    n, c_out = 3, 4
    oh, ow = hw[0] + 2 * pad - 2, hw[1] + 2 * pad - 2
    x = rng.normal(size=(n, c_in) + hw).astype(dtype)
    w = rng.normal(size=(c_out, c_in, 3, 3)).astype(dtype)
    b = rng.normal(size=c_out).astype(dtype)
    d = rng.normal(size=(n, c_out, oh, ow)).astype(dtype)

    z = network.conv_forward(x, w, b, pad)
    assert z.shape == (n, c_out, oh, ow)
    assert np.array_equal(z, network.conv_forward(nhwc_backed(x), w, b, pad))
    # im2col takes NCHW-contiguous memory (at pad 0 too) and batch slices
    for view in (x, nhwc_backed(x), nhwc_backed(x)[1:], nhwc_backed(x)[::2], x[::2]):
        cols, _, _ = network._im2col(view, pad)
        assert_same_bits(cols, im2col_reference(view, pad))
    assert_same_bits(
        network.conv_forward(nhwc_backed(x)[::2], w, b, pad),
        network.conv_forward(np.ascontiguousarray(x[::2]), w, b, pad),
    )
    dx = network.conv_input_backward(d, w, hw, pad)
    assert dx.shape == x.shape
    assert np.array_equal(dx, network.conv_input_backward(nhwc_backed(d), w, hw, pad))
    dw, db = network._conv_param_backward(d, x, pad)
    dw_view, db_view = network._conv_param_backward(nhwc_backed(d), nhwc_backed(x), pad)
    assert np.array_equal(dw, dw_view) and np.array_equal(db, db_view)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def im2col_reference(x, pad):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    return win.transpose(0, 2, 3, 4, 5, 1).reshape(-1, 9 * x.shape[1])


def input_grad_scatter(dout, w, in_hw, pad):
    """The col2im conv_input_backward replaced: nine shifted += into zeros."""
    n, c_out, oh, ow = dout.shape
    c_in = w.shape[1]
    d = network._nhwc(dout).reshape(n * oh * ow, c_out)
    dcols = (d @ network._wmat(w).T).reshape(n, oh, ow, 9, c_in)
    h, w_ = in_hw
    dxp = np.zeros((n, h + 2 * pad, w_ + 2 * pad, c_in), dtype=dout.dtype)
    for k in range(9):
        ky, kx = divmod(k, 3)
        dxp[:, ky : ky + oh, kx : kx + ow] += dcols[:, :, :, k]
    return dxp[:, pad : pad + h, pad : pad + w_].transpose(0, 3, 1, 2)


def weight_grad_whole_batch_im2col(dout, x_in, pad):
    """The weight gradient that sliced one whole-batch im2col into its blocks."""
    n, c_out, oh, ow = dout.shape
    cols, _, _ = network._im2col(x_in, pad)
    d = network._nhwc(dout).reshape(n * oh * ow, c_out)
    rows = network._WGRAD_BLOCK * oh * ow
    dw = cols[:rows].T @ d[:rows]
    for start in range(rows, n * oh * ow, rows):
        dw += cols[start : start + rows].T @ d[start : start + rows]
    return dw.reshape(3, 3, x_in.shape[1], c_out).transpose(3, 2, 0, 1), d.sum(axis=0)


# (signal dtype, weight dtype); lrp_eps sends a float64 signal through float32 weights
SIGNAL_WEIGHT_DTYPES = [
    (np.float32, np.float32),
    (np.float64, np.float64),
    (np.float64, np.float32),
]
BACKWARD_CASES = [(3, 1, (6, 7)), (3, 0, (6, 7)), (64, 1, (6, 7)), (64, 0, (6, 7)), (64, 0, (4, 5))]


@pytest.mark.parametrize("d_dtype,w_dtype", SIGNAL_WEIGHT_DTYPES, ids=["f32", "f64", "lrp_mix"])
@pytest.mark.parametrize("c_in,pad,hw", BACKWARD_CASES)
def test_conv_backward_keeps_the_bits_of_the_reference(c_in, pad, hw, d_dtype, w_dtype):
    rng = np.random.default_rng(c_in + pad + hw[0])
    c_out = 64
    oh, ow = hw[0] + 2 * pad - 2, hw[1] + 2 * pad - 2
    w = rng.normal(size=(3, 3, c_in, c_out)).astype(w_dtype).transpose(3, 2, 0, 1)
    for n in (1, 7, 8, 9, 17, 133):
        # NHWC-backed, as backward passes them; zero samples and signed zeros
        d = rng.normal(size=(n, oh, ow, c_out)).astype(d_dtype).transpose(0, 3, 1, 2)
        d[rng.random(n) < 0.25] = 0.0
        d[d < -1.0] = -0.0
        x = np.maximum(rng.normal(size=(n,) + hw + (c_in,)), 0).astype(d_dtype)
        x = x.transpose(0, 3, 1, 2)
        assert_same_bits(
            network.conv_input_backward(d, w, hw, pad), input_grad_scatter(d, w, hw, pad)
        )
        if d_dtype is w_dtype:
            got = network._conv_param_backward(d, x, pad)
            ref = weight_grad_whole_batch_im2col(d, x, pad)
            for a, b in zip(got, ref):
                assert_same_bits(a, b)
                assert a.strides == b.strides


# (c_in as a multiple of C, pad, input H, W): conv1 to conv4 of a C-channel net
LAYERS = [(0, 1, (6, 7)), (1, 1, (6, 7)), (1, 0, (6, 7)), (1, 0, (4, 5))]
CHUNK_BATCHES = (1, 13, 47, 48, 49, 100, 196)


def conv_forward_one_gemm(x, w, b, pad):
    """conv_forward as one GEMM over the whole batch's im2col rows."""
    cols, oh, ow = network._im2col(x, pad)
    out = cols @ network._wmat(w)
    out += b
    return out.reshape(x.shape[0], oh, ow, -1).transpose(0, 3, 1, 2)


def input_grad_one_gemm(dout, w, in_hw, pad):
    """conv_input_backward as one dcols GEMM over the whole batch plus the
    _col2im_index gather, 8 samples at a time."""
    n, c_out, oh, ow = dout.shape
    c_in = w.shape[1]
    per_sample = oh * ow * 9
    d = network._nhwc(dout).reshape(n * oh * ow, c_out)
    rows = np.concatenate([d @ network._wmat(w).T, np.zeros((1, 9 * c_in), d.dtype)])
    rows = rows.reshape(-1, c_in)[: n * per_sample + 1]
    idx = network._col2im_index(oh, ow, pad)
    dx = np.empty((n, in_hw[0] * in_hw[1], c_in), dtype=dout.dtype)
    for start in range(0, n, network._WGRAD_BLOCK):
        terms = rows[start * per_sample :].take(idx[: n - start], axis=0)
        np.add.reduce(terms, axis=1, initial=0.0, out=dx[start : start + network._WGRAD_BLOCK])
    return dx.reshape(n, *in_hw, c_in).transpose(0, 3, 1, 2)


def layer_shapes(layer, c):
    c_in_mult, pad, hw = LAYERS[layer]
    c_in = c * c_in_mult or network.IN_CHANNELS
    return c_in, pad, hw, (hw[0] + 2 * pad - 2, hw[1] + 2 * pad - 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [8, 64])
@pytest.mark.parametrize("layer", range(4))
def test_chunked_conv_gemms_keep_the_bits_of_one_gemm(layer, c, dtype):
    c_in, pad, hw, (oh, ow) = layer_shapes(layer, c)
    rng = np.random.default_rng(100 * layer + c)
    w = rng.normal(size=(3, 3, c_in, c)).astype(dtype).transpose(3, 2, 0, 1)
    b = rng.normal(size=c).astype(dtype)
    for n in CHUNK_BATCHES:
        # NHWC-backed, as forward and backward pass them
        x = rng.normal(size=(n,) + hw + (c_in,)).astype(dtype).transpose(0, 3, 1, 2)
        d = rng.normal(size=(n, oh, ow, c)).astype(dtype).transpose(0, 3, 1, 2)
        assert_same_bits(network.conv_forward(x, w, b, pad), conv_forward_one_gemm(x, w, b, pad))
        assert_same_bits(
            network.conv_input_backward(d, w, hw, pad), input_grad_one_gemm(d, w, hw, pad)
        )


def test_chunk_plans_cover_one_many_and_merged_tail_chunks():
    # the plans the bit test above runs: every chunk but the last is a
    # multiple of 8 samples within the budget, every split GEMM stays above
    # the bit bound, and all three kinds of plan occur. conv_forward plans
    # its two lanes' chunks on half the budget, as if a sample took twice
    # its bytes
    budget, bound = network._CHUNK_BYTES, network._ROW_EXACT_GEMM_WORK
    kinds = set()
    for layer in range(4):
        for c in (8, 64):
            c_in, _, _, (oh, ow) = layer_shapes(layer, c)
            for itemsize in (4, 8, 16):  # 8 and 16: float32 and float64 at half budget
                sample_bytes = oh * ow * 9 * c_in * itemsize
                sample_work = oh * ow * 9 * c_in * c
                for n in CHUNK_BATCHES:
                    chunks = network._sample_chunks(n, sample_bytes, sample_work)
                    bounds = [start for start, _ in chunks] + [n]
                    assert chunks == list(zip(bounds, bounds[1:]))
                    sizes = np.diff(bounds)
                    assert bounds[0] == 0 and (sizes > 0).all()
                    if len(sizes) == 1:
                        kinds.add("one" if n * sample_bytes <= budget else "merged tail")
                        continue
                    assert (sizes[:-1] % network._WGRAD_BLOCK == 0).all()
                    assert (sizes[:-1] * sample_bytes <= budget).all()
                    assert (sizes * sample_work > bound).all()
                    merged = sizes[-1] > sizes[0]
                    kinds.add("merged tail" if merged else "many")
    assert kinds == {"one", "many", "merged tail"}


@pytest.mark.parametrize("helpers", [0, 1])
def test_large_batch_conv_transients_stay_within_the_chunk_budget(helpers, monkeypatch):
    # conv2 at C = 64 and batch 196: the whole batch's im2col or dcols rows
    # would be 19 MB. With a helper, conv_forward's two lanes hold a chunk each
    monkeypatch.setattr(network, "_helper_threads", lambda: helpers)
    c, n = 64, 196
    rng = np.random.default_rng(47)
    w = rng.normal(size=(3, 3, c, c)).astype(np.float32).transpose(3, 2, 0, 1)
    b = rng.normal(size=c).astype(np.float32)
    x = rng.normal(size=(n, 6, 7, c)).astype(np.float32).transpose(0, 3, 1, 2)
    calls = {
        "conv_forward": lambda: network.conv_forward(x, w, b, 1),
        "conv_input_backward": lambda: network.conv_input_backward(x, w, (6, 7), 1),
    }
    for name, call in calls.items():
        call()  # fills the col2im index cache outside the traced call
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= result.nbytes + 2 * network._CHUNK_BYTES, name


def weight_grad_reference(d, x, pad):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    return np.einsum("nohw,nihwyx->oiyx", d, win), d.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("n", [1, 8, 13, 37])
@pytest.mark.parametrize("c_in,pad,hw", CONV_CASES)
def test_weight_gradient_matches_einsum(c_in, pad, hw, n, dtype, tol):
    # n = 13 and 37 end in a partial block of the blocked reduction
    rng = np.random.default_rng(43 + n)
    c_out = 6
    oh, ow = hw[0] + 2 * pad - 2, hw[1] + 2 * pad - 2
    x = rng.normal(size=(n, c_in) + hw).astype(dtype)
    d = rng.normal(size=(n, c_out, oh, ow)).astype(dtype)
    dw, db = network._conv_param_backward(d, x, pad)
    ref_dw, ref_db = weight_grad_reference(d.astype(np.float64), x.astype(np.float64), pad)
    assert dw.shape == (c_out, c_in, 3, 3) and dw.dtype == dtype
    assert np.abs(dw - ref_dw).max() <= tol * np.abs(ref_dw).max()
    assert np.abs(db - ref_db).max() <= tol * np.abs(ref_db).max()


# --- weight memory layout -----------------------------------------------------

CONV_WEIGHTS = [f"conv{i}_w" for i in range(1, 5)]


def test_conv_weights_live_in_gemm_order(tmp_path):
    params = make_params(8, seed=3, dtype=np.float32)
    path = tmp_path / "net.ckpt"
    network.save(params, path)
    x = np.stack([random_input(i) for i in range(3)])
    grads, _ = network.backward(params, network.forward(params, x), policy_grad=np.ones((3, 7)))
    state = training.init_adam_state(params)
    stepped = training.adam_step(params, grads, state, training.PPOConfig(conv_channels=8))
    built = {
        "init": params,
        "load": network.load(path),
        "astype": params.astype(np.float64),
        "adam_step": stepped,
    }
    for origin, built_params in built.items():
        for name in CONV_WEIGHTS:
            w = built_params.tensors[name]
            assert w.shape == params.tensors[name].shape
            assert np.shares_memory(network._wmat(w), w), (origin, name)
    for name in CONV_WEIGHTS:
        assert np.shares_memory(network._wmat(grads[name]), grads[name]), name
        assert np.shares_memory(network._wmat(state["m"][name]), state["m"][name]), name
    assert np.array_equal(built["load"].tensors["conv2_w"], params.tensors["conv2_w"])


def test_a_c_ordered_conv_weight_gives_the_same_bits():
    params = make_params(8, seed=4, dtype=np.float32)
    swapped = params.astype(params.dtype)
    for name in CONV_WEIGHTS:
        # the swap moves each weight from GEMM order to C order
        w = params.tensors[name]
        assert np.shares_memory(network._wmat(w), w), name
        swapped.tensors[name] = np.ascontiguousarray(w)
        assert not np.shares_memory(network._wmat(swapped.tensors[name]), swapped.tensors[name])
    x = np.stack([random_input(i) for i in range(5)])
    ta, tb = network.forward(params, x), network.forward(swapped, x)
    for f in dataclasses.fields(ta):
        a, b = getattr(ta, f.name), getattr(tb, f.name)
        for u, v in zip(a, b) if isinstance(a, list) else [(a, b)]:
            assert np.array_equal(u, v), f.name
    rng = np.random.default_rng(5)
    seeds = dict(policy_grad=rng.normal(size=(5, 7)), value_grad=rng.normal(size=5))
    ga, dxa = network.backward(params, ta, **seeds)
    gb, dxb = network.backward(swapped, tb, **seeds)
    assert np.array_equal(dxa, dxb)
    for name in ga:
        assert np.array_equal(ga[name], gb[name]), name
    board = engine.replay([3, 3, 4, 2, 5, 6, 0])
    a = attribution.lrp_eps(params, board)
    b = attribution.lrp_eps(swapped, board)
    assert np.array_equal(a.scores, b.scores)


# --- gradient checks ----------------------------------------------------------

def projection_loss(params, x, cp, cv):
    trace = network.forward(params, x)
    return float(trace.policy[0] @ cp + trace.value[0] * cv)


def test_gradcheck_all_layers():
    params = make_params(8, seed=7, dtype=np.float64)
    x = random_input(8)
    rng = np.random.default_rng(9)
    cp = rng.normal(size=7)
    cv = float(rng.normal())
    trace = network.forward(params, x)
    grads, input_grad = network.backward(
        params, trace, policy_grad=cp[None], value_grad=np.array([cv])
    )
    step = 1e-5
    names = [n for n, _ in params.arch.param_specs()]
    checked = 0
    for name in names:
        tensor = params.tensors[name]
        flat_idx = rng.choice(tensor.size, size=min(10, tensor.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, tensor.shape)
            orig = tensor[idx]
            tensor[idx] = orig + step
            up = projection_loss(params, x, cp, cv)
            tensor[idx] = orig - step
            down = projection_loss(params, x, cp, cv)
            tensor[idx] = orig
            fd = (up - down) / (2 * step)
            an = grads[name][idx]
            denom = max(abs(fd), abs(an), 1e-6)
            assert abs(fd - an) / denom <= 1e-4, (name, idx, fd, an)
            checked += 1
    assert checked >= 100


def test_gradcheck_input():
    params = make_params(8, seed=11, dtype=np.float64)
    x = random_input(12).astype(np.float64)
    rng = np.random.default_rng(13)
    cp = rng.normal(size=7)
    cv = float(rng.normal())
    trace = network.forward(params, x)
    _, input_grad = network.backward(
        params, trace, policy_grad=cp[None], value_grad=np.array([cv]),
        want_param_grads=False,
    )
    step = 1e-5
    for _ in range(30):
        ch, r, c = rng.integers(3), rng.integers(6), rng.integers(7)
        xp = x.copy(); xp[ch, r, c] += step
        xm = x.copy(); xm[ch, r, c] -= step
        fd = (projection_loss(params, xp, cp, cv) - projection_loss(params, xm, cp, cv)) / (2 * step)
        an = input_grad[0, ch, r, c]
        denom = max(abs(fd), abs(an), 1e-6)
        assert abs(fd - an) / denom <= 1e-4


def test_skipping_the_input_gradient_keeps_the_parameter_gradients():
    params = make_params(8, seed=5)
    rng = np.random.default_rng(6)
    x = rng.random((13, 3, 6, 7)).astype(np.float32)
    trace = network.forward(params, x)
    seeds = dict(policy_grad=rng.normal(size=(13, 7)), value_grad=rng.normal(size=13))
    full, input_grad = network.backward(params, trace, **seeds)
    lean, skipped = network.backward(params, trace, want_input_grad=False, **seeds)
    assert input_grad.shape == x.shape and skipped is None
    assert full.keys() == lean.keys()
    for name in full:
        assert np.array_equal(full[name], lean[name]), name


def test_backward_at_logits():
    params = make_params(8, seed=15, dtype=np.float64)
    x = random_input(16)
    trace = network.forward(params, x)
    one_hot = np.zeros((1, 7)); one_hot[0, 3] = 1.0
    _, g_logit = network.backward(params, trace, policy_grad=one_hot, at_logits=True,
                                  want_param_grads=False)
    step = 1e-5

    def logit3(xv):
        tr = network.forward(params, xv)
        return float(tr.policy_logits[0, 3])

    rng = np.random.default_rng(17)
    for _ in range(10):
        ch, r, c = rng.integers(3), rng.integers(6), rng.integers(7)
        xp = x.copy(); xp[ch, r, c] += step
        xm = x.copy(); xm[ch, r, c] -= step
        fd = (logit3(xp) - logit3(xm)) / (2 * step)
        an = g_logit[0, ch, r, c]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) <= 1e-4


# --- two-lane backward ------------------------------------------------------------

def guided_relu(name, z, d):
    return ((z > 0) & (d > 0)).astype(z.dtype)


def backward_in_lane(helpers, monkeypatch, *args, **kwargs):
    """``network.backward(*args, **kwargs)`` with the helper-thread count
    fixed to ``helpers``, and the threads that ran a conv weight gradient."""
    monkeypatch.setattr(network, "_helper_threads", lambda: helpers)
    threads = set()
    original = network._conv_param_backward

    def recording(*a):
        threads.add(threading.get_ident())
        return original(*a)

    monkeypatch.setattr(network, "_conv_param_backward", recording)
    try:
        return network.backward(*args, **kwargs), threads
    finally:
        monkeypatch.setattr(network, "_conv_param_backward", original)


@pytest.mark.parametrize("n", [1, 13, 37, 181])
@pytest.mark.parametrize("channels", [8, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_both_backward_lanes_give_the_same_bits(dtype, channels, n, monkeypatch):
    params = make_params(channels, seed=n, dtype=dtype)
    rng = np.random.default_rng(channels + n)
    trace = network.forward(params, rng.random((n, 3, 6, 7)).astype(dtype))
    seeds = dict(policy_grad=rng.normal(size=(n, 7)), value_grad=rng.normal(size=n))
    for want_input_grad in (True, False):
        for relu in (None, guided_relu):
            kwargs = dict(seeds, relu=relu, want_input_grad=want_input_grad)
            (one, g_one), one_threads = backward_in_lane(0, monkeypatch, params, trace, **kwargs)
            (two, g_two), two_threads = backward_in_lane(1, monkeypatch, params, trace, **kwargs)
            assert one_threads == {threading.get_ident()}
            assert len(two_threads) == 1 and threading.get_ident() not in two_threads
            assert list(one) == list(two)
            assert sorted(one) == sorted(name for name, _ in params.arch.param_specs())
            for name in one:
                assert one[name].dtype == two[name].dtype
                assert one[name].tobytes() == two[name].tobytes(), name
            if want_input_grad:
                assert g_one.tobytes() == g_two.tobytes()
            else:
                assert g_one is None and g_two is None


@pytest.mark.parametrize("helpers", [0, 1])
def test_both_backward_lanes_train_the_golden_checkpoint(helpers, tmp_path, monkeypatch):
    from test_golden_outputs import GOLDEN

    monkeypatch.setattr(network, "_helper_threads", lambda: helpers)
    cfg = training.PPOConfig(
        conv_channels=8, total_games=20, update_every=10, checkpoint_every=10, seed=3
    )
    result = training.train(cfg, tmp_path)
    assert network.file_sha256(result.checkpoint_path) == GOLDEN["train"][0]


class WeightGradFailed(Exception):
    pass


@pytest.mark.parametrize("helpers", [1, 0])
def test_a_failed_weight_gradient_reaches_the_caller_unchanged(helpers, monkeypatch):
    params = make_params(8, seed=41, dtype=np.float32)
    trace = network.forward(params, np.random.default_rng(42).random((13, 3, 6, 7)))
    failure = WeightGradFailed("conv3")
    threads = []
    weight_grad = network._conv_param_backward

    def failing(dout, x_in, pad):
        threads.append(threading.get_ident())
        if len(threads) == 2:  # conv3's
            raise failure
        return weight_grad(dout, x_in, pad)

    monkeypatch.setattr(network, "_helper_threads", lambda: helpers)
    monkeypatch.setattr(network, "_conv_param_backward", failing)
    before = threading.active_count()
    with pytest.raises(WeightGradFailed) as raised:
        network.backward(params, trace, value_grad=np.ones(13))
    assert raised.value is failure
    assert threading.active_count() == before
    assert (threading.get_ident() in threads) == (helpers == 0)


class HookFailed(Exception):
    pass


def test_a_failed_caller_lane_surfaces_after_the_helper_ends(monkeypatch):
    params = make_params(8, seed=43, dtype=np.float32)
    trace = network.forward(params, np.random.default_rng(44).random((13, 3, 6, 7)))
    events = []
    weight_grad = network._conv_param_backward

    def slow(dout, x_in, pad):
        time.sleep(0.2)
        events.append(("weight gradient", threading.get_ident()))
        return weight_grad(dout, x_in, pad)

    def failing_relu(name, z, d):
        if name == "conv3":
            events.append(("hook failed", threading.get_ident()))
            raise HookFailed
        return (z > 0).astype(z.dtype)

    monkeypatch.setattr(network, "_helper_threads", lambda: 1)
    monkeypatch.setattr(network, "_conv_param_backward", slow)
    before = threading.active_count()
    with pytest.raises(HookFailed):
        network.backward(params, trace, value_grad=np.ones(13), relu=failing_relu)
    assert threading.active_count() == before
    # conv4's weight gradient was on the helper when the hook raised at conv3
    (hook, caller), (wgrad, helper) = events
    assert hook == "hook failed" and wgrad == "weight gradient"
    assert caller == threading.get_ident() != helper


# --- two-lane conv forward and the helper slot -----------------------------------

IM2COL = network._im2col
SAMPLE_CHUNKS = network._sample_chunks


def recorded(call, threads, meet=False):
    """``call``, adding the thread of every call to ``threads``; with
    ``meet`` each thread's first call waits (10 s at most) until two
    threads have made one."""
    both = threading.Barrier(2, timeout=10)

    def recording(*args):
        first = threading.get_ident() not in threads
        threads.add(threading.get_ident())
        if meet and first:
            both.wait()
        return call(*args)

    return recording


def conv_case(layer, c, dtype, n, seed):
    c_in, pad, hw, (oh, ow) = layer_shapes(layer, c)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 3, c_in, c)).astype(dtype).transpose(3, 2, 0, 1)
    b = rng.normal(size=c).astype(dtype)
    x = rng.normal(size=(n,) + hw + (c_in,)).astype(dtype).transpose(0, 3, 1, 2)
    chunked = n * oh * ow * 9 * c_in * x.itemsize > network._CHUNK_BYTES
    return (x, w, b, pad), chunked


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("c", [8, 64])
@pytest.mark.parametrize("layer", range(4))
def test_two_forward_lanes_give_one_lanes_bits(layer, c, dtype, monkeypatch):
    caller = threading.get_ident()
    for n in (1, 25, 33, 64, 100, 147, 181, 196):
        args, chunked = conv_case(layer, c, dtype, n, seed=10 * layer + c + n)
        one_threads, two_threads, counts = set(), set(), set()
        monkeypatch.setattr(network, "_helper_threads", lambda: 0)
        monkeypatch.setattr(network, "_im2col", recorded(IM2COL, one_threads))
        one = network.conv_forward(*args)
        monkeypatch.setattr(network, "_helper_threads", lambda: 1)

        def counting(*im2col_args):
            counts.add(threading.active_count())
            return IM2COL(*im2col_args)

        monkeypatch.setattr(network, "_im2col", recorded(counting, two_threads, meet=chunked))
        before = threading.active_count()
        two = network.conv_forward(*args)
        assert threading.active_count() == before
        assert_same_bits(one, two)
        assert one_threads == {caller}
        if chunked:  # the helper ran at least one chunk
            assert len(two_threads) == 2 and caller in two_threads
            assert counts == {before + 1}
        else:  # one GEMM: no thread starts
            assert two_threads == {caller} and counts == {before}


def test_both_forward_lanes_train_the_same_c64_checkpoint(tmp_path, monkeypatch):
    rows = []
    forward = network.forward

    def recording(params, x, **kwargs):
        rows.append(len(x))
        return forward(params, x, **kwargs)

    monkeypatch.setattr(network, "forward", recording)
    digests = []
    for helpers in (0, 1):
        monkeypatch.setattr(network, "_helper_threads", lambda helpers=helpers: helpers)
        cfg = training.PPOConfig(
            conv_channels=64, total_games=10, update_every=10, checkpoint_every=0, seed=5
        )
        result = training.train(cfg, tmp_path / str(helpers))
        digests.append(network.file_sha256(result.checkpoint_path))
    assert digests[0] == digests[1]
    # the PPO batch's float32 conv2 im2col rows take conv_forward's chunked branch
    assert max(rows) * 6 * 7 * 9 * 64 * 4 > network._CHUNK_BYTES


def ongoing_board(pieces, seed):
    rng = np.random.default_rng(seed)
    board = engine.new_board()
    while board.turn < pieces:
        board = engine.apply_move(board, int(rng.choice(board.legal_moves())))
        if engine.outcome(board).is_terminal:
            board = engine.new_board()
    return board


def test_a_lane_inside_a_lane_runs_alone(monkeypatch):
    # at C = 64 float64 a 64-row block's conv3 im2col rows are 5.9 MB, so
    # every block's forward takes conv_forward's chunked branch
    params = make_params(64, seed=51, dtype=np.float64)
    board = ongoing_board(12, seed=52)
    values = []
    for helpers in (0, 1):
        monkeypatch.setattr(network, "_helper_threads", lambda helpers=helpers: helpers)
        nu = charfn.nu_pol(params, board)
        block_threads, chunk_threads, im2col_threads = set(), set(), set()
        nu._evaluate = recorded(nu._evaluate, block_threads, meet=helpers == 1)
        monkeypatch.setattr(network, "_sample_chunks", recorded(SAMPLE_CHUNKS, chunk_threads))
        monkeypatch.setattr(network, "_im2col", recorded(IM2COL, im2col_threads))
        before = threading.active_count()
        values.append(nu.eval_masks(np.arange(4 * charfn.BLOCK_ROWS)))
        assert threading.active_count() == before
        assert len(block_threads) == 1 + helpers
        # each block's chunks ran on the block's own thread: no third thread
        assert chunk_threads == im2col_threads == block_threads
    assert values[0].tobytes() == values[1].tobytes()


def test_a_held_slot_keeps_a_chunked_forward_on_its_caller(monkeypatch):
    args, chunked = conv_case(1, 64, np.float32, 147, seed=53)
    assert chunked
    monkeypatch.setattr(network, "_helper_threads", lambda: 1)
    held_threads, free_threads = set(), set()
    monkeypatch.setattr(network, "_im2col", recorded(IM2COL, held_threads))
    with network._HELPER_SLOT:
        held = network.conv_forward(*args)
    monkeypatch.setattr(network, "_im2col", recorded(IM2COL, free_threads, meet=True))
    free = network.conv_forward(*args)
    assert held_threads == {threading.get_ident()}
    assert len(free_threads) == 2
    assert_same_bits(held, free)


class LaneFailed(Exception):
    pass


def failing_second_call(call, failure):
    calls = itertools.count(1)

    def failing(*args):
        if next(calls) == 2:
            raise failure
        return call(*args)

    return failing


@pytest.mark.parametrize("lane", ["chunk", "weight gradient", "block"])
def test_every_exit_frees_the_helper_slot(lane, monkeypatch):
    monkeypatch.setattr(network, "_helper_threads", lambda: 1)
    failure = LaneFailed(lane)
    threads = set()
    caller = threading.get_ident()
    if lane == "chunk":
        args, _ = conv_case(1, 64, np.float32, 147, seed=54)
        call = lambda: network.conv_forward(*args)
        monkeypatch.setattr(network, "_im2col", failing_second_call(IM2COL, failure))
        retry = lambda: monkeypatch.setattr(network, "_im2col", recorded(IM2COL, threads, meet=True))
        helped = lambda: len(threads) == 2
    elif lane == "weight gradient":
        # the setup of test_a_failed_weight_gradient_reaches_the_caller_unchanged
        params = make_params(8, seed=41, dtype=np.float32)
        trace = network.forward(params, np.random.default_rng(42).random((13, 3, 6, 7)))
        call = lambda: network.backward(params, trace, value_grad=np.ones(13))
        weight_grad = network._conv_param_backward
        monkeypatch.setattr(network, "_conv_param_backward", failing_second_call(weight_grad, failure))
        retry = lambda: monkeypatch.setattr(
            network, "_conv_param_backward", recorded(weight_grad, threads)
        )
        helped = lambda: threads and caller not in threads
    else:
        nu = charfn.nu_pol(make_params(8, seed=55), ongoing_board(10, seed=56))
        call = lambda: nu.eval_masks(np.arange(4 * charfn.BLOCK_ROWS))
        evaluate = nu._evaluate
        nu._evaluate = failing_second_call(evaluate, failure)
        retry = lambda: setattr(nu, "_evaluate", recorded(evaluate, threads, meet=True))
        helped = lambda: len(threads) == 2
    before = threading.active_count()
    with pytest.raises(LaneFailed) as raised:
        call()
    assert raised.value is failure
    assert threading.active_count() == before
    assert not network._HELPER_SLOT.locked()
    retry()
    call()  # starts a helper again
    assert helped()
    assert threading.active_count() == before


# --- functional properties -----------------------------------------------------

def test_softmax_constant_shift_invariance():
    params = make_params(8, seed=19, dtype=np.float64)
    x = random_input(20)
    base = network.forward(params, x).policy
    shifted = params.astype(params.dtype)
    shifted.tensors["policy_b"] = shifted.tensors["policy_b"] + 500.0
    after = network.forward(shifted, x).policy
    assert np.allclose(base, after, atol=1e-12)
    # extreme logits stay finite
    big = params.astype(params.dtype)
    big.tensors["policy_b"] = big.tensors["policy_b"] + np.array([1e4, 0, 0, 0, 0, 0, -1e4])
    tr = network.forward(big, x)
    assert np.isfinite(tr.policy).all()
    assert abs(tr.policy.sum() - 1.0) < 1e-12


def test_zero_params_give_uniform_policy_and_zero_value():
    params = make_params(8, seed=21, dtype=np.float64)
    for name in params.tensors:
        params.tensors[name] = np.zeros_like(params.tensors[name])
    trace = network.forward(params, random_input(22))
    assert np.allclose(trace.policy[0], 1.0 / 7, atol=1e-15)
    assert trace.value[0] == 0.0


def test_init_is_nondegenerate():
    for seed in range(5):
        params = make_params(16, seed=seed, dtype=np.float64)
        trace = network.forward(params, random_input(seed))
        pol, val = trace.policy[0], trace.value[0]
        assert 0.01 <= pol.max() <= 0.9
        assert abs(val) < 0.9
        assert abs(pol.sum() - 1.0) < 1e-12


def test_init_bias_bounds_follow_fan_in():
    params = make_params(8, seed=23)
    arch = params.arch
    for name, shape in arch.param_specs():
        tensor = params.tensors[name]
        if name.endswith("_w"):
            fan_in = int(np.prod(shape[1:]))
        else:
            wshape = dict(arch.param_specs())[name[:-2] + "_w"]
            fan_in = int(np.prod(wshape[1:]))
        bound = 1.0 / np.sqrt(fan_in)
        assert tensor.max() <= bound and tensor.min() >= -bound
        if tensor.size > 1:
            assert tensor.std() > 0


def test_forward_shape_and_finite_errors():
    params = make_params(8)
    with pytest.raises(network.ShapeMismatch):
        network.forward(params, np.zeros((2, 6, 7)))
    with pytest.raises(network.ShapeMismatch):
        network.forward(params, np.zeros((3, 7, 6)))
    bad = random_input()
    bad[0, 0, 0] = np.inf
    with pytest.raises(network.NonFiniteActivation):
        network.forward(params, bad)


def test_batched_forward_matches_single():
    params = make_params(8, seed=25, dtype=np.float64)
    xs = np.stack([random_input(i) for i in (1, 2, 3)])
    tr = network.forward(params, xs)
    for i in range(3):
        single = network.forward(params, xs[i])
        assert np.allclose(tr.policy[i], single.policy[0], atol=1e-12)
        assert np.allclose(tr.value[i], single.value[0], atol=1e-12)


def hand_encoding(board, revealed):
    """The input convention written out cell by cell: channel 0 the
    revealed pieces of the side to move, 1 the opponent's, 2 open cells."""
    x = np.zeros((3, 6, 7))
    for row in range(6):
        for col in range(7):
            v = board.cells[row][col]
            if v == engine.EMPTY:
                x[2, row, col] = 1.0
            elif revealed is None or (row, col) in revealed:
                x[0 if v == board.to_move else 1, row, col] = 1.0
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_boards_equals_forward_on_hand_built_encodings(dtype):
    params = make_params(8, seed=37, dtype=dtype)
    red = engine.replay([3, 3, 4, 2])  # red to move
    blue = engine.replay([3, 3, 4, 2, 5])  # blue to move
    boards = [red, blue, red, blue, red, blue]
    revealed = [
        None, None, frozenset(), frozenset(), frozenset({(0, 4)}), frozenset({(0, 3), (1, 3)}),
    ]
    x = np.array([hand_encoding(b, r) for b, r in zip(boards, revealed)])
    got, ref = network.forward_boards(params, boards, revealed), network.forward(params, x)
    assert got.x.dtype == dtype
    for name in ("x", "policy_logits", "policy", "value"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    # revealed None reveals every board in full
    got = network.forward_boards(params, boards[:2])
    assert np.array_equal(got.policy, network.forward(params, x[:2]).policy)
    # batch 1 matches a batch-1 forward
    for i in (3, 5):
        got = network.forward_boards(params, [boards[i]], [revealed[i]])
        assert np.array_equal(got.value, network.forward(params, x[i]).value)
    with pytest.raises(ValueError):
        network.forward_boards(params, boards, revealed[:2])


def ongoing_board(n_pieces, seed):
    """An ongoing board reached by uniform random play with ``n_pieces`` pieces."""
    rng = np.random.default_rng(seed)
    while True:
        board = engine.new_board()
        while board.turn < n_pieces and not engine.outcome(board).is_terminal:
            legal = board.legal_moves()
            board = engine.apply_move(board, int(legal[rng.integers(len(legal))]))
        if board.turn == n_pieces and not engine.outcome(board).is_terminal:
            return board


@pytest.mark.parametrize("t", [8, 17, 26])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_masks_on_coalition_grids_is_forward_boards(dtype, t):
    params = make_params(64, seed=t, dtype=dtype)
    board = ongoing_board(t, seed=t)
    cells = board.occupied_cells()
    keep = np.random.default_rng(t + 1).random((40, t)) < 0.5
    keep[0], keep[1] = False, True  # the empty and the full coalition
    coalitions = [frozenset(c for c, k in zip(cells, row) if k) for row in keep]
    grids = np.zeros((len(coalitions), 6, 7))
    for grid, coalition in zip(grids, coalitions):
        for cell in coalition:
            grid[cell] = 1.0
    x_full = network.forward_boards(params, [board]).x[0]
    got = network.forward_masks(params, x_full, grids)
    ref = network.forward_boards(params, [board] * len(coalitions), coalitions)
    assert got.x.dtype == dtype
    for name in ("x", "policy_logits", "policy", "value"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def trace_arrays(trace):
    return [
        trace.x, *trace.conv_z, *trace.conv_a, trace.flat, *trace.fc_z, *trace.fc_a,
        trace.policy_logits, trace.policy, trace.value_pre, trace.value,
    ]  # fmt: skip


def coalition_grids(board, n, rng, dtype=np.float64):
    """n random 0/1 grids on the occupied cells of ``board``, each with its own density."""
    rows, cols = np.array(board.occupied_cells()).T
    grids = np.zeros((n, 6, 7), dtype=dtype)
    grids[:, rows, cols] = rng.random((n, len(rows))) < rng.random((n, 1))
    return grids


def distinct_conv2_windows(masks):
    """(cell, mask bits of the 5x5 input window around it) keys, by brute force."""
    return {
        (y, x, masks[r, max(y - 2, 0) : y + 3, max(x - 2, 0) : x + 3].tobytes())
        for r in range(len(masks))
        for y in range(6)
        for x in range(7)
    }


@pytest.mark.parametrize("t", [8, 17, 26])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [8, 16, 64])
def test_shared_conv2_rows_keep_every_bit_of_the_trace(channels, dtype, t):
    params = make_params(channels, seed=channels + t, dtype=dtype)
    board = ongoing_board(t, seed=t)
    x_full = network.forward_boards(params, [board]).x[0]
    rng = np.random.default_rng(t)
    shared = []
    for n in (2, 7, 8, 9, 40, 64):
        grids = coalition_grids(board, n, rng, dtype)
        x = np.repeat(x_full[None], n, axis=0)
        x[:, :2] *= grids[:, None]
        got = network.forward_masks(params, x_full, grids)
        ref = network.forward(params, x)
        for a, b in zip(trace_arrays(got), trace_arrays(ref), strict=True):
            assert np.array_equal(a, b)
        plan = network._shared_conv2_rows(grids, channels)
        if plan is not None:
            shared.append(n)
            assert len(plan[0]) == len(distinct_conv2_windows(grids)) < n * 42
    # rows are shared only in GEMMs above 10^6 multiply-adds: at C = 64
    # from 28 distinct rows, at C = 16 from 435
    if channels == 64:
        assert shared == [2, 7, 8, 9, 40, 64]
    elif channels == 16:
        assert 64 in shared


def test_fractional_and_single_masks_share_no_rows():
    board = ongoing_board(17, seed=17)
    grids = coalition_grids(board, 64, np.random.default_rng(3))
    assert network._shared_conv2_rows(grids, 64) is not None
    assert network._shared_conv2_rows(grids[:1], 64) is None
    for odd in (0.5, -0.0):
        changed = grids.copy()
        changed[5, 0, 0] = odd
        assert network._shared_conv2_rows(changed, 64) is None


def test_forward_masks_damps_only_the_colour_channels():
    params = make_params(8, seed=39)
    x_full = random_input(40)
    masks = np.random.default_rng(41).uniform(size=(3, 6, 7))
    got = network.forward_masks(params, x_full, masks)
    assert np.array_equal(got.x[:, :2], x_full[None, :2] * masks[:, None])
    assert np.array_equal(got.x[:, 2], np.broadcast_to(x_full[2], (3, 6, 7)))


@pytest.mark.parametrize("shape", [(6, 7), (3, 7, 6), (3, 6, 7, 1)])
def test_forward_masks_rejects_malformed_masks(shape):
    with pytest.raises(network.ShapeMismatch):
        network.forward_masks(make_params(8, seed=39), random_input(40), np.ones(shape))


def test_guided_relu_rule_masks_negative_upstream():
    params = make_params(8, seed=27, dtype=np.float64)
    x = random_input(28)
    trace = network.forward(params, x)
    one_hot = np.zeros((1, 7)); one_hot[0, int(np.argmax(trace.policy[0]))] = 1.0
    _, g_exact = network.backward(params, trace, policy_grad=one_hot, at_logits=True,
                                  want_param_grads=False)
    _, g_guided = network.backward(params, trace, policy_grad=one_hot, at_logits=True,
                                   relu=lambda name, z, d: ((z > 0) & (d > 0)).astype(z.dtype),
                                   want_param_grads=False)
    assert np.isfinite(g_guided).all()
    assert not np.allclose(g_exact, g_guided)


# --- checkpoint format ----------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = make_params(8, seed=29, dtype=np.float32)
    params.meta["games"] = 123
    path = tmp_path / "net.ckpt"
    network.save(params, path)
    loaded = network.load(path)
    assert loaded.arch == params.arch
    assert loaded.dtype == params.dtype
    assert loaded.meta["games"] == 123
    for name, tensor in params.tensors.items():
        assert tensor.dtype == loaded.tensors[name].dtype
        assert np.array_equal(tensor, loaded.tensors[name])
    x = random_input(30)
    assert np.array_equal(
        network.forward(params, x).policy, network.forward(loaded, x).policy
    )


def test_checkpoint_header_magic_and_version(tmp_path):
    params = make_params(8, seed=31)
    path = tmp_path / "net.ckpt"
    network.save(params, path)
    blob = bytearray(path.read_bytes())
    assert blob[:6] == network.CHECKPOINT_MAGIC

    wrong_magic = tmp_path / "magic.ckpt"
    bad = bytearray(blob); bad[0] ^= 0xFF
    wrong_magic.write_bytes(bad)
    with pytest.raises(network.CorruptPayload):
        network.load(wrong_magic)

    # version is the little-endian uint32 after the magic; bumping it must
    # fail as a version problem whether or not the trailer is recomputed
    import hashlib
    import struct

    ver = tmp_path / "ver.ckpt"
    bumped = bytearray(blob)
    struct.pack_into("<I", bumped, 6, network.CHECKPOINT_VERSION + 1)
    ver.write_bytes(bumped)
    with pytest.raises(network.VersionMismatch):
        network.load(ver)

    rehashed = bumped[:-32] + hashlib.sha256(bumped[:-32]).digest()
    ver2 = tmp_path / "ver2.ckpt"
    ver2.write_bytes(rehashed)
    with pytest.raises(network.VersionMismatch):
        network.load(ver2)


def test_checkpoint_corruption_detected(tmp_path):
    params = make_params(8, seed=33)
    path = tmp_path / "net.ckpt"
    network.save(params, path)
    blob = bytearray(path.read_bytes())

    flipped = tmp_path / "flip.ckpt"
    bad = bytearray(blob); bad[len(bad) // 2] ^= 0x01
    flipped.write_bytes(bad)
    with pytest.raises(network.CorruptPayload):
        network.load(flipped)

    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(bytes(blob[:-5]))
    with pytest.raises(network.CorruptPayload):
        network.load(trunc)

    padded = tmp_path / "pad.ckpt"
    padded.write_bytes(bytes(blob) + b"\x00\x00")
    with pytest.raises(network.CorruptPayload):
        network.load(padded)


def test_checkpoint_golden_policy(tmp_path):
    # a fixed seed and input must reproduce the same policy after a
    # save/load cycle in float32
    params = make_params(8, seed=35, dtype=np.float32)
    path = tmp_path / "net.ckpt"
    network.save(params, path)
    loaded = network.load(path)
    x = engine.encode(engine.replay([3, 3, 4, 2]))
    a = network.forward(params, x).policy
    b = network.forward(loaded, x).policy
    assert np.array_equal(a, b)


def test_file_sha256(tmp_path):
    p = tmp_path / "blob"
    p.write_bytes(b"abc")
    assert network.file_sha256(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def repack_header(path, edit):
    """Rewrite a checkpoint with ``edit(header)`` as its JSON header and a
    valid checksum, so only the header schema is wrong."""
    import hashlib
    import json
    import struct

    blob = path.read_bytes()
    off = len(network.CHECKPOINT_MAGIC) + 8
    (header_len,) = struct.unpack_from("<I", blob, off - 4)
    header = json.loads(blob[off : off + header_len])
    new_header = json.dumps(edit(header)).encode()
    body = (
        blob[: off - 4]
        + struct.pack("<I", len(new_header))
        + new_header
        + blob[off + header_len : -32]
    )
    path.write_bytes(body + hashlib.sha256(body).digest())


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


MALFORMED_HEADERS = {
    "empty object": lambda header: {},
    "json list": lambda header: [1, 2, 3],
    "no param_order": lambda header: _without(header, "param_order"),
    "shape missing": lambda header: {**header, "shapes": _without(header["shapes"], "conv2_w")},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_header_is_corrupt_payload(tmp_path, case):
    path = tmp_path / "net.ckpt"
    network.save(make_params(8, seed=37), path)
    repack_header(path, MALFORMED_HEADERS[case])
    with pytest.raises(network.CorruptPayload) as exc:
        network.load(path)
    assert "checksum" not in str(exc.value)



def _small_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ckpt"
        network.save(make_params(1, seed=39, dtype=np.float32), path)
        return path.read_bytes()


SMALL_CKPT = _small_checkpoint()
_HEADER_AT = len(network.CHECKPOINT_MAGIC) + 8
_HEADER_LEN = struct.unpack_from("<I", SMALL_CKPT, _HEADER_AT - 4)[0]
SMALL_HEADER = json.loads(SMALL_CKPT[_HEADER_AT : _HEADER_AT + _HEADER_LEN])
SMALL_PAYLOAD = SMALL_CKPT[_HEADER_AT + _HEADER_LEN : -32]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
header_keys = st.sampled_from(sorted(SMALL_HEADER) + ["extra"])


@st.composite
def crafted_headers(draw):
    """Header bytes: the valid header with one field replaced, deleted or
    one of its parameters' entries edited, or arbitrary JSON or bytes."""
    kind = draw(st.sampled_from(["replace", "delete", "param", "json", "bytes"]))
    header = json.loads(json.dumps(SMALL_HEADER))
    if kind == "replace":
        header[draw(header_keys)] = draw(json_values)
    elif kind == "delete":
        header.pop(draw(header_keys), None)
    elif kind == "param":
        name = draw(st.sampled_from(header["param_order"]))
        header["shapes"][name] = draw(json_values)
        header["param_order"] = draw(st.permutations(header["param_order"]))
    elif kind == "json":
        header = draw(json_values)
    else:
        return draw(st.binary(max_size=64))
    return json.dumps(header).encode()


def pack(header: bytes, payload: bytes, header_len=None) -> bytes:
    if header_len is None:
        header_len = len(header)
    body = (
        network.CHECKPOINT_MAGIC
        + struct.pack("<II", network.CHECKPOINT_VERSION, header_len)
        + header
        + payload
    )
    return body + hashlib.sha256(body).digest()


def load_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ckpt"
        path.write_bytes(blob)
        return network.load(path)


def test_pack_rebuilds_the_saved_file():
    header = SMALL_CKPT[_HEADER_AT : _HEADER_AT + _HEADER_LEN]
    assert pack(header, SMALL_PAYLOAD) == SMALL_CKPT
    assert load_bytes(SMALL_CKPT).arch.conv_channels == 1


def names_mismatch_payload(message) -> bytes:
    """SMALL_CKPT with a valid header and checksum whose parameter names
    and payload disagree in the way ``message`` names."""
    header = json.loads(json.dumps(SMALL_HEADER))
    order, payload = header["param_order"], SMALL_PAYLOAD
    if message == "unexpected parameter 'bogus_w'":
        order[0] = "bogus_w"
    elif message == "trailing bytes in payload":
        payload += bytes(4)
    else:  # the last tensor's name and bytes both gone
        itemsize = np.dtype(network._DTYPE_TAGS[header["dtype"]]).itemsize
        payload = payload[: -math.prod(header["shapes"][order.pop()]) * itemsize]
    return pack(json.dumps(header).encode(), payload)


@pytest.mark.parametrize(
    "message", ["unexpected parameter 'bogus_w'", "trailing bytes in payload", "missing parameters"]
)
def test_load_rejects_names_that_do_not_match_the_payload(tmp_path, capsys, message):
    path = tmp_path / "net.ckpt"
    path.write_bytes(names_mismatch_payload(message))
    with pytest.raises(network.CorruptPayload, match=message):
        network.load(path)
    assert cli.main(["benchmark", "--checkpoint", str(path), "--games", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(
    header=crafted_headers(),
    cut=st.integers(0, len(SMALL_PAYLOAD)),
    extra=st.binary(max_size=16),
    header_len=st.none() | st.integers(0, 2**32 - 1),
    rehash=st.booleans(),
)
def test_load_raises_only_network_errors(header, cut, extra, header_len, rehash):
    blob = pack(header, SMALL_PAYLOAD[: len(SMALL_PAYLOAD) - cut] + extra, header_len)
    if not rehash:
        blob = blob[:-32] + SMALL_CKPT[-32:]
    try:
        params = load_bytes(blob)
    except network.NetworkError:
        return
    # a file that loads must be a complete, well-formed checkpoint
    assert sorted(params.tensors) == sorted(name for name, _ in params.arch.param_specs())

def test_sample_action_renormalises_float64_policy_in_place():
    policy = np.array([0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2])
    a = network.sample_action(policy, np.random.default_rng(5))
    np.testing.assert_allclose(policy, 1.0 / 7.0)
    assert a == network.sample_action(policy, np.random.default_rng(5))
    float32 = np.full(7, 0.2, dtype=np.float32)
    network.sample_action(float32, np.random.default_rng(5))
    assert float32[0] == np.float32(0.2)
