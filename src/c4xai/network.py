"""Convolutional policy/value network with exact analytic gradients.

The architecture is fixed in shape: four 3x3 stride-1 conv layers (the
first two zero-padded, keeping 6x7; the last two unpadded, shrinking to
4x5 then 2x3), a five-layer fully connected stack, and two heads - a
7-way softmax policy and a tanh scalar value. Width scales with the
conv channel count C; the reference scale is C = 512, the desk default
C = 64.

Everything is plain numpy. ``forward`` records every pre- and
post-activation in a ForwardTrace so saliency rules can re-traverse the
net, and ``backward`` differentiates exactly (ReLU subgradient 0 at 0).

The conv layers compute on channels-last (NHWC) memory: im2col copies
3x3 patches into rows ordered (ky, kx, c_in), and the forward, input
gradient and weight gradient are 2-D GEMMs over those rows. The forward
and the input gradient run one GEMM over a batch whose rows fit in
_CHUNK_BYTES (4 MB), and a larger batch one GEMM per chunk of whole
samples into one preallocated result, with the same bits (see
``_sample_chunks``), so no layer holds the whole batch's rows at once.
Arguments and results keep the NCHW shape (n, C, H, W); a conv result
is the ``transpose(0, 3, 1, 2)`` view of its NHWC buffer, so passing it
on to the next layer costs no copy. Conv weights likewise keep the
(C_out, C_in, 3, 3) shape on (ky, kx, c_in, c_out) memory, so the GEMM
weight matrix is a view; checkpoints store the (C_out, C_in, 3, 3)
bytes. The weight gradient sums one GEMM per block of 8 samples in
sample order, each over that block's own im2col rows, not one GEMM over
the batch, so training gives the same bits at any BLAS thread count
(see ``_conv_param_backward``). The input gradient's col2im gathers the
GEMM's rows through a cached index table and sums each input cell's
nine kernel offsets in offset order, 8 samples at a time (see
``conv_input_backward``). ``forward_masks`` on 0/1 masks runs conv2's
GEMM once per distinct output cell and 5x5 input window, where that
keeps every bit (see ``_shared_conv2_rows``).

``backward`` runs in two lanes when ``_helper_threads`` allows a helper
thread: each conv layer's weight gradient goes to the helper as soon
as that layer's output gradient is known, while the calling thread goes
on down the input-gradient chain (conv4 to conv1). A chunked
``conv_forward`` likewise runs its sample chunks on the calling thread
and the helper, which take them in turn (``_in_turns``), each chunk's
rows within half of _CHUNK_BYTES. Each gradient or chunk comes from the
same calls on the same arrays as in one lane, so every bit is the same;
the helper has finished before the call returns or raises. Every
helper starts through one process-wide slot (``_helper_lane``), so a
lane started inside a lane runs alone and at most one helper runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from . import Error, engine
from .engine import COLS, ROWS

N_ACTIONS = 7
IN_CHANNELS = 3

CONV_PADS = (1, 1, 0, 0)
# spatial (H, W) after each conv layer: a 3x3 kernel with padding p adds 2p - 2
CONV_HW = tuple((ROWS + s, COLS + s) for s in accumulate(2 * pad - 2 for pad in CONV_PADS))
_FC_BASE = (1024, 512, 512, 512, 512)
N_FC = len(_FC_BASE)
_BASE_CHANNELS = 512

CHECKPOINT_MAGIC = b"C4XNET"
CHECKPOINT_VERSION = 1


class NetworkError(Error):
    pass


class ShapeMismatch(NetworkError):
    pass


class NonFiniteActivation(NetworkError):
    pass


class VersionMismatch(NetworkError):
    pass


class CorruptPayload(NetworkError):
    pass


@dataclass(frozen=True)
class ArchDescriptor:
    """Width configuration; C = 512 reproduces the reference layer sizes."""

    conv_channels: int = 64

    def __post_init__(self):
        if self.conv_channels < 1:
            raise ValueError("conv_channels must be positive")

    @property
    def fc_widths(self) -> tuple:
        # reference widths scaled by C/512, snapped to multiples of 8
        scale = self.conv_channels / _BASE_CHANNELS
        return tuple(max(8, int(round(b * scale / 8)) * 8) for b in _FC_BASE)

    @property
    def flatten_size(self) -> int:
        h, w = CONV_HW[-1]
        return self.conv_channels * h * w

    def param_specs(self) -> tuple:
        """Ordered (name, shape) pairs; the checkpoint payload order."""
        c = self.conv_channels
        specs = [("conv1_w", (c, IN_CHANNELS, 3, 3)), ("conv1_b", (c,))]
        for i in (2, 3, 4):
            specs += [(f"conv{i}_w", (c, c, 3, 3)), (f"conv{i}_b", (c,))]
        n_in = self.flatten_size
        for i, width in enumerate(self.fc_widths, start=1):
            specs += [(f"fc{i}_w", (width, n_in)), (f"fc{i}_b", (width,))]
            n_in = width
        specs += [
            ("policy_w", (N_ACTIONS, n_in)),
            ("policy_b", (N_ACTIONS,)),
            ("value_w", (1, n_in)),
            ("value_b", (1,)),
        ]
        return tuple(specs)


@dataclass
class NetworkParams:
    arch: ArchDescriptor
    tensors: dict
    dtype: np.dtype = np.dtype(np.float32)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # conv weights live on (ky, kx, c_in, c_out) memory behind their
        # (C_out, C_in, 3, 3) shape, so _wmat is a view, not a copy
        for k, w in self.tensors.items():
            if w.ndim == 4:
                hwio = np.ascontiguousarray(w.transpose(2, 3, 1, 0))
                self.tensors[k] = hwio.transpose(3, 2, 0, 1)

    def astype(self, dtype) -> "NetworkParams":
        dt = np.dtype(dtype)
        return NetworkParams(
            arch=self.arch,
            tensors={k: v.astype(dt) for k, v in self.tensors.items()},
            dtype=dt,
            meta=dict(self.meta),
        )


@dataclass
class ForwardTrace:
    """Every intermediate tensor of one forward pass (batch-first)."""

    x: np.ndarray
    conv_z: list
    conv_a: list
    flat: np.ndarray
    fc_z: list
    fc_a: list
    policy_logits: np.ndarray
    policy: np.ndarray
    value_pre: np.ndarray
    value: np.ndarray


def init(arch: ArchDescriptor, rng: np.random.Generator, dtype=np.float32) -> NetworkParams:
    """Fan-in-scaled uniform init for weights and biases."""
    dt = np.dtype(dtype)
    specs = dict(arch.param_specs())
    tensors = {}
    for name, shape in specs.items():
        # a bias takes the fan-in of its layer's weights
        fan_in = int(np.prod(specs[name[:-2] + "_w"][1:]))
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name] = rng.uniform(-bound, bound, size=shape).astype(dt)
    return NetworkParams(arch=arch, tensors=tensors, dtype=dt)


# ---------------------------------------------------------------------------
# conv primitives (shared with the relevance-propagation rules)
# ---------------------------------------------------------------------------

# samples per partial product of the weight gradient (see _conv_param_backward)
# and per col2im gather of the input gradient (see conv_input_backward)
_WGRAD_BLOCK = 8
# bytes of im2col rows (conv_forward) or dcols rows (conv_input_backward)
# that a large batch builds at once (see _sample_chunks)
_CHUNK_BYTES = 4 << 20


def _nhwc(a: np.ndarray) -> np.ndarray:
    """The (n, H, W, C) view of an NCHW-shaped array; free for NHWC-backed views."""
    return a.transpose(0, 2, 3, 1)


def _wmat(w: np.ndarray) -> np.ndarray:
    """(C_out, C_in, 3, 3) weights as the (9 C_in, C_out) matrix in (ky, kx, c_in) order.

    A view for weights on (ky, kx, c_in, c_out) memory (see NetworkParams), else a copy.
    """
    return w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0])


def _windows(x: np.ndarray, pad: int) -> np.ndarray:
    """(n, OH, OW, 3, 3, C_in) view of the 3x3 windows of an NCHW-shaped input."""
    n, c_in, h, w = x.shape
    if pad:
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c_in), dtype=x.dtype)
        xp[:, pad : pad + h, pad : pad + w] = _nhwc(x)
    else:
        xp = np.ascontiguousarray(_nhwc(x))
    oh, ow = xp.shape[1] - 2, xp.shape[2] - 2
    s0, s1, s2, s3 = xp.strides
    # np.ndarray on the buffer is cheaper to call than as_strided, and the
    # weight gradient calls this once per block of samples
    return np.ndarray((n, oh, ow, 3, 3, c_in), xp.dtype, xp, strides=(s0, s1, s2, s1, s2, s3))


def _im2col(x: np.ndarray, pad: int) -> np.ndarray:
    """(n * OH * OW, 9 C_in) patch rows of an NCHW-shaped input, K in (ky, kx, c_in) order."""
    win = _windows(x, pad)
    # one copy of the window view: each (kx, c_in) run of the NHWC buffer
    # is contiguous, so rows are copied 3 C_in at a time
    return win.reshape(-1, 9 * x.shape[1])


# Below this M * K * N, OpenBLAS (scipy-openblas 0.3.31, 1 thread) rounds a
# row of an sgemm or dgemm differently from the same row of a larger GEMM;
# above it, rows keep their bits whatever M is. So a GEMM is split, or its
# rows shared, only when every GEMM that results stays above it.
_ROW_EXACT_GEMM_WORK = 10**6


def _sample_chunks(n: int, sample_bytes: int, sample_work: int) -> list:
    """(start, end) sample ranges of the chunks a conv GEMM of ``n`` samples runs in.

    A chunk is the largest multiple of _WGRAD_BLOCK samples whose rows
    (``sample_bytes`` each sample) fit in _CHUNK_BYTES, and at least
    _WGRAD_BLOCK samples. Every chunk's GEMM (``sample_work`` multiply-adds
    each sample) must stay above _ROW_EXACT_GEMM_WORK for its rows to keep
    the whole-batch bits, so a tail at or below it joins the chunk before
    it, and chunks at or below it give one GEMM over the batch.
    """
    size = max(_WGRAD_BLOCK, _CHUNK_BYTES // sample_bytes // _WGRAD_BLOCK * _WGRAD_BLOCK)
    if n <= size or size * sample_work <= _ROW_EXACT_GEMM_WORK:
        return [(0, n)]
    starts = list(range(0, n, size))
    if (n - starts[-1]) * sample_work <= _ROW_EXACT_GEMM_WORK:
        del starts[-1]
    return list(zip(starts, starts[1:] + [n]))


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    """3x3 stride-1 conv of an NCHW-shaped batch, as NCHW-shaped NHWC memory.

    A batch whose im2col rows fit in _CHUNK_BYTES is one GEMM over them.
    A larger one builds its rows per chunk of samples (see _sample_chunks)
    and writes each chunk's GEMM into its rows of the result, which gives
    the same bits without a copy of the whole batch's rows. The chunks
    run in two lanes when ``_in_turns`` starts a helper, so each chunk's
    rows fit in half the budget.
    """
    n, c_in, h, w_ = x.shape
    oh, ow = h + 2 * pad - 2, w_ + 2 * pad - 2
    sample_bytes = oh * ow * 9 * c_in * x.itemsize
    if n * sample_bytes <= _CHUNK_BYTES:
        # the batch-1 fast path: through _sample_chunks, a C = 64 batch-1 forward
        # took 189.0 against 174.7 us (minimum of 5 processes, 2-core x86-64 host)
        out = _im2col(x, pad) @ _wmat(w)
    else:
        wmat = _wmat(w)
        out = np.empty((n * oh * ow, w.shape[0]), dtype=np.result_type(x, w))

        def chunk(bounds):
            start, end = bounds
            # no name holds a chunk's rows, so they are freed before the lane's next chunk
            np.matmul(_im2col(x[start:end], pad), wmat, out=out[start * oh * ow : end * oh * ow])

        # two lanes share the budget: each chunk's rows fit in half of it
        _in_turns(chunk, _sample_chunks(n, 2 * sample_bytes, oh * ow * wmat.size))
    out += b
    return out.reshape(n, oh, ow, w.shape[0]).transpose(0, 3, 1, 2)


# Window bitmasks and cell tags of the 6x7 grid, each (42,) int64. Bit j of
# a cell's window is set when cell j (row-major) is within 2 rows and columns
# of it: the 5x5 input window that a padded 3x3 conv of a padded 3x3 conv
# reads. Its tag is its own index shifted above bit 42, so keys of different
# cells never collide.
_CELLS = np.arange(ROWS * COLS, dtype=np.int64)
_Y, _X = np.divmod(_CELLS, COLS)
_WINDOW_TABLE = (((abs(_Y[:, None] - _Y) <= 2) & (abs(_X[:, None] - _X) <= 2)) << _CELLS).sum(1)
_CELL_TAGS = _CELLS << (ROWS * COLS)
_WINDOW_TABLE.flags.writeable = _CELL_TAGS.flags.writeable = False


def _shared_conv2_rows(masks: np.ndarray, c: int):
    """(first, inverse) for conv2's GEMM under 0/1 ``masks``, or None.

    conv2's output at a cell depends on the board only through the 5x5
    input window around it, so two rows whose masks agree on that window
    get the same conv2 output there. ``first`` holds one flat (sample, y,
    x) index per distinct (cell, window bits) key and ``inverse`` maps
    every output row to its key. None when a mask holds anything but 0
    and 1 or the shared GEMM would fall below _ROW_EXACT_GEMM_WORK.
    """
    n = len(masks)
    per_row = 9 * c * c
    if n < 2 or n * ROWS * COLS * per_row <= _ROW_EXACT_GEMM_WORK:
        return None
    flat = masks.reshape(n, ROWS * COLS)
    one = flat == 1
    # byte equality also turns away -0.0, which masks a cell to other bits than 0.0
    if one.astype(flat.dtype).tobytes() != flat.tobytes():
        return None
    bits = (one.astype(np.int64) << _CELLS).sum(axis=1)
    keys = ((bits[:, None] & _WINDOW_TABLE) | _CELL_TAGS).reshape(-1)
    # np.unique sorts stably when asked for indices: ``first`` is each
    # key's first row, in key order
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) * per_row <= _ROW_EXACT_GEMM_WORK:
        return None
    return first, inverse


def _conv_shared(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int, first, inverse) -> np.ndarray:
    """``conv_forward(x, w, b, pad)`` from one GEMM row per entry of
    ``first``: the GEMM runs through conv_forward on those windows alone
    (pad 0, 1x1 output), and ``inverse`` gathers its rows back."""
    win = _windows(x, pad)
    n, oh, ow, _, _, c_in = win.shape
    patches = win[np.unravel_index(first, (n, oh, ow))]
    z = conv_forward(patches.transpose(0, 3, 1, 2), w, b, 0)
    rows = _nhwc(z).reshape(len(first), -1)
    return rows[inverse].reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)


@lru_cache(maxsize=None)
def _col2im_index(oh: int, ow: int, pad: int) -> np.ndarray:
    """(_WGRAD_BLOCK, 9, H * W) gather table for the col2im of one conv shape.

    Entry [j, k, cell] is the (C_in,)-row of ``conv_input_backward``'s
    dcols that kernel offset k adds into input cell ``cell`` of a block's
    sample j, or -1, the zero row after the last sample, where offset k
    reaches no output cell from that input cell.
    """
    k_rows = np.full((9, oh + 2, ow + 2), -1)
    out_rows = np.arange(oh * ow).reshape(oh, ow) * 9
    for k in range(9):
        ky, kx = divmod(k, 3)
        k_rows[k, ky : ky + oh, kx : kx + ow] = out_rows + k
    cells = k_rows[:, pad : oh + 2 - pad, pad : ow + 2 - pad].reshape(9, -1)
    sample = np.arange(_WGRAD_BLOCK)[:, None, None] * (oh * ow * 9)
    idx = np.where(cells < 0, -1, cells + sample)
    idx.flags.writeable = False
    return idx


def conv_input_backward(dout: np.ndarray, w: np.ndarray, in_hw: tuple, pad: int) -> np.ndarray:
    """Gradient w.r.t. the conv input (a transposed convolution).

    The dcols GEMM runs once for a batch whose rows fit in _CHUNK_BYTES,
    else once per chunk of samples (see _sample_chunks) into one
    chunk-sized row buffer, which gives the same bits. col2im is one
    gather of dcols rows per block of _WGRAD_BLOCK samples and an
    add.reduce over the kernel offsets. Reducing a non-innermost axis adds
    each cell's terms in offset order starting from +0, as nine shifted
    ``+=`` into a zeroed buffer do; an offset that reaches no output cell
    gathers the zero row, and adding +0 to a sum that starts at +0 never
    changes it.
    """
    n, c_out, oh, ow = dout.shape
    c_in = w.shape[1]
    h, w_ = in_hw
    per_sample = oh * ow * 9
    sample_bytes = per_sample * c_in * dout.itemsize
    if n * sample_bytes <= _CHUNK_BYTES:
        chunks, chunk = ((0, n),), n
    else:
        chunks = _sample_chunks(n, sample_bytes, per_sample * c_in * c_out)
        chunk = max(end - start for start, end in chunks)
    # the result before the transient rows: in that order a batch-64
    # backward grows the heap less (play peak_rss_mb 56.0 MB, not 58.6)
    dx = np.empty((n, h * w_, c_in), dtype=dout.dtype)
    # a chunk's dcols as (C_in,)-rows in (sample, oy, ox, k) order, then
    # one zero row, which index -1 of every gather below reaches
    rows = np.empty((chunk * per_sample + 1, c_in), dtype=dout.dtype)
    rows[-1] = 0
    d = _nhwc(dout).reshape(n * oh * ow, c_out)
    wmat_t = _wmat(w).T
    idx = _col2im_index(oh, ow, pad)
    for start, end in chunks:
        dcols = rows[: (end - start) * per_sample].reshape(-1, 9 * c_in)
        np.matmul(d[start * oh * ow : end * oh * ow], wmat_t, out=dcols)
        # per block, so the gathered terms (9 times the result) stay small
        for block in range(start, end, _WGRAD_BLOCK):
            terms = rows[(block - start) * per_sample :].take(idx[: end - block], axis=0)
            np.add.reduce(terms, axis=1, initial=0.0, out=dx[block : block + _WGRAD_BLOCK])
    return dx.reshape(n, h, w_, c_in).transpose(0, 3, 1, 2)


def _conv_param_backward(dout: np.ndarray, x_in: np.ndarray, pad: int):
    # One GEMM over the whole batch reduces along n * OH * OW, and OpenBLAS
    # rounds that long reduction differently at 1 and 2 threads, so the
    # bits of dw (and of every trained checkpoint) would follow the thread
    # count. Partial products over _WGRAD_BLOCK whole samples, summed in
    # sample order, give the same bits at 1 and 2 threads. Each block
    # builds only its own im2col rows.
    n, c_out, oh, ow = dout.shape
    d = _nhwc(dout).reshape(n * oh * ow, c_out)
    rows = _WGRAD_BLOCK * oh * ow
    dw = _im2col(x_in[:_WGRAD_BLOCK], pad).T @ d[:rows]
    for start in range(_WGRAD_BLOCK, n, _WGRAD_BLOCK):
        cols = _im2col(x_in[start : start + _WGRAD_BLOCK], pad)
        dw += cols.T @ d[start * oh * ow : start * oh * ow + rows]
    db = d.sum(axis=0)
    # the (C_out, C_in, 3, 3) view of dw's (ky, kx, c_in, c_out) memory, the
    # weights' own layout, so the optimizer's updates keep that layout too
    return dw.reshape(3, 3, x_in.shape[1], c_out).transpose(3, 2, 0, 1), db


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def forward(params: NetworkParams, x: np.ndarray, *, conv2_rows=None) -> ForwardTrace:
    """Run the network; returns a trace with a leading batch axis.

    ``conv2_rows`` is ``forward_masks``' (first, inverse) row sharing for
    conv2 (see ``_shared_conv2_rows``); it changes no bit of the trace.
    """
    x = np.asarray(x, dtype=params.dtype)
    if x.ndim == 3:
        x = x[None]
    if x.ndim != 4 or x.shape[1:] != (IN_CHANNELS, ROWS, COLS):
        raise ShapeMismatch(f"expected (*, {IN_CHANNELS}, {ROWS}, {COLS}), got {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteActivation("non-finite network input")
    t = params.tensors
    a = x
    conv_z, conv_a = [], []
    for i, pad in enumerate(CONV_PADS, start=1):
        w, b = t[f"conv{i}_w"], t[f"conv{i}_b"]
        if i == 2 and conv2_rows is not None:
            z = _conv_shared(a, w, b, pad, *conv2_rows)
        else:
            z = conv_forward(a, w, b, pad)
        a = np.maximum(z, 0.0)
        conv_z.append(z)
        conv_a.append(a)
    flat = a.reshape(a.shape[0], -1)
    fc_z, fc_a = [], []
    h = flat
    for i in range(1, N_FC + 1):
        z = h @ t[f"fc{i}_w"].T + t[f"fc{i}_b"]
        h = np.maximum(z, 0.0)
        fc_z.append(z)
        fc_a.append(h)
    logits = h @ t["policy_w"].T + t["policy_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)  # overflow guard
    e = np.exp(shifted)
    policy = e / e.sum(axis=1, keepdims=True)
    value_pre = h @ t["value_w"].T + t["value_b"]
    value = np.tanh(value_pre[:, 0])
    if not (np.isfinite(policy).all() and np.isfinite(value).all()):
        raise NonFiniteActivation("non-finite network output")
    return ForwardTrace(
        x=x,
        conv_z=conv_z,
        conv_a=conv_a,
        flat=flat,
        fc_z=fc_z,
        fc_a=fc_a,
        policy_logits=logits,
        policy=policy,
        value_pre=value_pre,
        value=value,
    )


def forward_boards(params: NetworkParams, boards, revealed=None) -> ForwardTrace:
    """One forward on ``boards`` as their movers see them.

    ``revealed[i]`` is the revealed coalition of ``boards[i]`` (None for
    full information); ``revealed`` None reveals every board in full.
    The trace's ``x`` holds the encodings, one row per board.
    """
    if revealed is None:
        revealed = [None] * len(boards)
    # np.array, not np.stack: 1.3 against 5.5 us for one board (2-core x86-64 host)
    x = np.array([engine.encode(b, r) for b, r in zip(boards, revealed, strict=True)])
    return forward(params, x)


def forward_masks(params: NetworkParams, x: np.ndarray, masks: np.ndarray) -> ForwardTrace:
    """One forward on one board under each (6, 7) mask of ``masks``.

    ``x`` is the board's full-information encoding, as ``forward_boards``
    leaves it in ``trace.x``. Row i multiplies its two colour channels by
    ``masks[i]`` and keeps the open-cells channel. A 0/1 mask gives the
    bits of ``forward_boards`` with the coalition of its 1-cells revealed.

    When every mask is 0/1, conv2's GEMM runs once per distinct (cell,
    mask bits of its 5x5 input window) and its rows are gathered back, so
    the trace keeps its bits; see ``_shared_conv2_rows`` for when.
    """
    if np.ndim(masks) != 3 or np.shape(masks)[1:] != (ROWS, COLS):
        raise ShapeMismatch(f"expected masks of shape (n, {ROWS}, {COLS}), got {np.shape(masks)}")
    masks = np.asarray(masks)
    x = np.repeat(np.asarray(x, dtype=params.dtype)[None], len(masks), axis=0)
    x[:, 0] *= masks
    x[:, 1] *= masks
    return forward(params, x, conv2_rows=_shared_conv2_rows(masks, params.arch.conv_channels))


def sample_action(policy: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an action from a policy vector renormalised in float64.

    The division is in place, so a float64 ``policy`` is rescaled in the
    caller's array too; callers read probabilities from it afterwards.
    """
    probs = np.asarray(policy, dtype=np.float64)
    probs /= probs.sum()
    return int(rng.choice(N_ACTIONS, p=probs))


def policy_mover(params: NetworkParams, rngs, reveal=None, argmax=False, on_move=None) -> Callable:
    """The one ply rule every network move of the package follows, as an
    ``engine.play_lockstep`` chooser with game i on ``rngs[i]``.

    Each ply calls ``reveal(board, rngs[i])`` on every board in index
    order (``reveal`` None shows every board in full), runs one
    ``forward_boards``, then picks per game in index order: the argmax
    with ``argmax``, which draws nothing, else ``sample_action``. Each
    pick then goes to ``on_move(i, board, x, policy, value, action)``
    with the game's row of the trace (a float64 ``policy`` as rescaled).
    """

    def choose(indices, boards):
        revealed = None if reveal is None else [reveal(b, rngs[i]) for i, b in zip(indices, boards)]
        trace = forward_boards(params, boards, revealed)
        actions = []
        for i, board, x, policy, value in zip(indices, boards, trace.x, trace.policy, trace.value):
            action = int(np.argmax(policy)) if argmax else sample_action(policy, rngs[i])
            if on_move is not None:
                on_move(i, board, x, policy, value, action)
            actions.append(action)
        return actions

    return choose


def backward(
    params: NetworkParams,
    trace: ForwardTrace,
    policy_grad: Optional[np.ndarray] = None,
    value_grad: Optional[np.ndarray] = None,
    *,
    at_logits: bool = False,
    relu: Optional[Callable] = None,
    want_param_grads: bool = True,
    want_input_grad: bool = True,
):
    """Reverse pass for <policy_grad, policy> + <value_grad, value>.

    ``policy_grad`` is taken w.r.t. the softmax probabilities unless
    ``at_logits`` is set, in which case it seeds the logits directly
    (used by the saliency rules that explain a raw logit).
    ``relu(name, z, d)`` returns the factor that multiplies the signal
    ``d`` arriving at the ReLU of layer ``name`` ('fc5' down to 'conv1')
    with pre-activation ``z``; None is the true subgradient
    ``(z > 0)``. Saliency rules change the ReLU derivative through it
    (guided backprop, DeepLIFT's rescale slopes).
    Returns (param gradient dict, input gradient); without
    ``want_input_grad`` conv1's input gradient is skipped and None.
    The conv weight gradients run on a helper thread when
    ``_helper_threads`` allows one (see the module docstring).
    """
    t = params.tensors
    n = trace.x.shape[0]
    dt = trace.x.dtype
    p = trace.policy
    if policy_grad is None:
        g_logits = np.zeros((n, N_ACTIONS), dtype=dt)
    else:
        pg = np.asarray(policy_grad, dtype=dt).reshape(n, N_ACTIONS)
        if at_logits:
            g_logits = pg
        else:
            g_logits = p * (pg - (pg * p).sum(axis=1, keepdims=True))
    if value_grad is None:
        g_vpre = np.zeros((n, 1), dtype=dt)
    else:
        vg = np.asarray(value_grad, dtype=dt).reshape(n)
        g_vpre = (vg * (1.0 - trace.value**2))[:, None]

    grads = {}
    h_last = trace.fc_a[-1]
    if want_param_grads:
        grads["policy_w"] = g_logits.T @ h_last
        grads["policy_b"] = g_logits.sum(axis=0)
        grads["value_w"] = g_vpre.T @ h_last
        grads["value_b"] = g_vpre.sum(axis=0)
    d = g_logits @ t["policy_w"] + g_vpre @ t["value_w"]

    for i in range(N_FC, 0, -1):
        z = trace.fc_z[i - 1]
        d = d * ((z > 0).astype(z.dtype) if relu is None else relu(f"fc{i}", z, d))
        a_prev = trace.fc_a[i - 2] if i >= 2 else trace.flat
        if want_param_grads:
            grads[f"fc{i}_w"] = d.T @ a_prev
            grads[f"fc{i}_b"] = d.sum(axis=0)
        d = d @ t[f"fc{i}_w"]

    c = params.arch.conv_channels
    d = d.reshape(n, c, *CONV_HW[-1])
    # each conv layer's weight gradient is read by nothing below it, so a
    # helper thread computes it while this thread goes on down the input
    # gradients; _conv_param_backward reaches no traced or shared state
    conv_grads = {}
    # leaving the block waits for the helper, also when this lane raises
    with _helper_lane() if want_param_grads else nullcontext() as pool:
        for i in range(len(CONV_PADS), 0, -1):
            z = trace.conv_z[i - 1]
            d = d * ((z > 0).astype(z.dtype) if relu is None else relu(f"conv{i}", z, d))
            a_prev = trace.conv_a[i - 2] if i >= 2 else trace.x
            pad = CONV_PADS[i - 1]
            if want_param_grads:
                if pool is None:
                    conv_grads[i] = _conv_param_backward(d, a_prev, pad)
                else:
                    conv_grads[i] = pool.submit(_conv_param_backward, d, a_prev, pad)
            if i == 1 and not want_input_grad:
                d = None
                break
            d = conv_input_backward(d, t[f"conv{i}_w"], a_prev.shape[2:], pad)
    for i, dw_db in conv_grads.items():
        grads[f"conv{i}_w"], grads[f"conv{i}_b"] = dw_db if pool is None else dw_db.result()
    return grads, d


# the variables OpenBLAS reads its thread count from when it loads, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _helper_threads() -> int:
    """Threads that may run network work beside the calling one: 1 when
    the usable CPUs number at least twice the BLAS threads, else 0. Its
    users, each through ``_helper_lane``, are ``backward``'s
    weight-gradient lane, the sample chunks of ``conv_forward`` and the
    coalition blocks of ``charfn._NetworkGame``. One helper is the count measured
    (2-core x86-64 host); more on larger hosts are unmeasured. A helper
    beside 2 BLAS threads made 40 Shapley boards slower there (median
    5.7 against 4.8 s), and a C = 64 ``ppo_update`` too (median 0.18 and
    0.20 against 0.16 s in two sets of 10 pairs).

    The BLAS thread count is not asked of the BLAS: it is read from the
    variables OpenBLAS (numpy's wheels) reads when it loads, in its
    order (``BLAS_THREAD_VARS``). With none set OpenBLAS runs a thread
    per usable CPU and no helper starts; nor does one when the first
    one set is not a positive integer. A limit set at runtime, or
    another BLAS's own variable (MKL_NUM_THREADS), is not seen.
    """
    value = next((os.environ[name] for name in BLAS_THREAD_VARS if name in os.environ), None)
    try:
        blas = int(value)
    except (TypeError, ValueError):
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return 1 if blas > 0 and cpus >= 2 * blas else 0


# held while a helper thread runs, so at most one runs in the process
_HELPER_SLOT = threading.Lock()


@contextmanager
def _helper_lane():
    """A one-worker pool for the one helper thread, or None.

    None when ``_helper_threads`` allows no helper or another lane holds
    the slot, such as the lane this call runs in: a lane started inside
    a lane runs alone. The slot is taken without blocking. Leaving the
    block waits for the helper and frees the slot, also when it raises.
    """
    if not _helper_threads() or not _HELPER_SLOT.acquire(blocking=False):
        yield None
        return
    try:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            yield pool
    finally:
        _HELPER_SLOT.release()


def _in_turns(run: Callable, tasks: list) -> list:
    """``[run(task) for task in tasks]``, in two lanes when it can.

    With two tasks or more and a helper from ``_helper_lane``, the
    calling thread and the helper take task indices in turn from one
    shared iterator. A thread whose task raises drains that iterator, so
    the other thread starts no further task; the helper has ended before
    this returns or raises, and its exception reaches the caller
    unchanged.
    """
    with _helper_lane() if len(tasks) >= 2 else nullcontext() as pool:
        if pool is None:
            return [run(task) for task in tasks]
        results = [None] * len(tasks)
        order = iter(range(len(tasks)))
        lock = threading.Lock()

        def work():
            while True:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                try:
                    results[i] = run(tasks[i])
                except BaseException:
                    with lock:
                        for _ in order:  # drained: no thread starts another task
                            pass
                    raise

        helper = pool.submit(work)
        work()
    helper.result()
    return results


def action_input_grad(
    params: NetworkParams,
    trace: ForwardTrace,
    action: int,
    *,
    at_logits: bool = False,
    relu: Optional[Callable] = None,
) -> np.ndarray:
    """d P(action) / d x for every row of ``trace``, or d logit / d x
    with ``at_logits``; ``relu`` is ``backward``'s hook."""
    seed = np.zeros((len(trace.policy), N_ACTIONS))
    seed[:, action] = 1.0
    _, g = backward(
        params, trace, policy_grad=seed, at_logits=at_logits, relu=relu, want_param_grads=False
    )
    return g


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
# magic | version u32 LE | header length u32 LE | JSON header | payload |
# sha256 digest of everything before it. Payload is the parameters in
# param_specs order, row-major, little-endian.

_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}


def save(params: NetworkParams, path) -> str:
    dtype_name = params.dtype.name
    if dtype_name not in _DTYPE_TAGS:
        raise NetworkError(f"unsupported dtype {dtype_name}")
    order = [name for name, _ in params.arch.param_specs()]
    header = {
        "conv_channels": params.arch.conv_channels,
        "dtype": dtype_name,
        "param_order": order,
        "shapes": {name: list(params.tensors[name].shape) for name in order},
        "meta": params.meta,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(params.tensors[name], dtype=_DTYPE_TAGS[dtype_name]).tobytes()
        for name in order
    )
    body = (
        CHECKPOINT_MAGIC
        + np.uint32(CHECKPOINT_VERSION).tobytes()
        + np.uint32(len(header_bytes)).tobytes()
        + header_bytes
        + payload
    )
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(body + digest)
    return str(path)


def load(path) -> NetworkParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 8 + 32:
        raise CorruptPayload("file too short")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CorruptPayload("bad magic bytes")
    off = len(CHECKPOINT_MAGIC)
    # version gates everything else: a newer format may differ past here
    version = int(np.frombuffer(blob, "<u4", count=1, offset=off)[0])
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"format version {version}, expected {CHECKPOINT_VERSION}")
    off += 4
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptPayload("checksum mismatch")
    header_len = int(np.frombuffer(blob, "<u4", count=1, offset=off)[0])
    off += 4
    try:
        header = json.loads(blob[off : off + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptPayload(f"unreadable header: {exc}") from exc
    off += header_len
    _check_header(header)
    arch = ArchDescriptor(conv_channels=header["conv_channels"])
    tag = _DTYPE_TAGS[header["dtype"]]
    specs = dict(arch.param_specs())
    tensors = {}
    for name in header["param_order"]:
        if name not in specs:
            raise CorruptPayload(f"unexpected parameter {name!r}")
        shape = header["shapes"].get(name)
        if not isinstance(shape, list) or tuple(shape) != specs[name]:
            raise CorruptPayload(f"shape mismatch for {name}: {shape} vs {specs[name]}")
        shape = specs[name]
        count = math.prod(shape)
        end = off + count * np.dtype(tag).itemsize
        if end > len(body):
            raise CorruptPayload("truncated payload")
        arr = np.frombuffer(body, tag, count=count, offset=off)
        tensors[name] = arr.reshape(shape).astype(header["dtype"])
        off = end
    if off != len(body):
        raise CorruptPayload("trailing bytes in payload")
    if len(tensors) != len(specs):
        raise CorruptPayload("missing parameters")
    return NetworkParams(
        arch=arch,
        tensors=tensors,
        dtype=np.dtype(header["dtype"]),
        meta=dict(header.get("meta", {})),
    )


def _check_header(header):
    """Reject a header whose fields ``load`` cannot read as typed."""
    if not isinstance(header, dict):
        raise CorruptPayload("header is not a JSON object")
    channels = header.get("conv_channels")
    if type(channels) is not int or channels < 1:
        raise CorruptPayload(f"bad conv_channels {channels!r}")
    if not isinstance(header.get("dtype"), str) or header["dtype"] not in _DTYPE_TAGS:
        raise CorruptPayload(f"unknown dtype {header.get('dtype')!r}")
    order = header.get("param_order")
    if not isinstance(order, list) or not all(isinstance(name, str) for name in order):
        raise CorruptPayload("param_order is not a list of names")
    if not isinstance(header.get("shapes"), dict) or not isinstance(header.get("meta", {}), dict):
        raise CorruptPayload("shapes or meta is not a JSON object")


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
