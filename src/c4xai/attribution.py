"""Saliency methods, per-piece aggregation, and top-fraction selection.

Every method explains the full-information decision of the network (the
policy argmax a*) and produces a 3x6x7 map of relevance scores. The
masker pipeline then sums absolute scores of the two colour channels
per occupied cell, reveals the best-scoring fraction (ties broken
uniformly at random), and re-encodes the board.

Shapley sampling and the Frank-Wolfe mask register here as score
sources too, so tournaments treat every masker uniformly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from . import charfn, engine, fwmask, network
from .csvio import write_csv


class AttributionError(Exception):
    pass


class UnknownMethod(AttributionError):
    pass


class ContextMismatch(AttributionError):
    pass


@dataclass
class SaliencyMap:
    scores: np.ndarray  # 3 x 6 x 7
    method: str
    a_star: Optional[int]
    board_key: bytes

    def __post_init__(self):
        if not np.isfinite(self.scores).all():
            raise AttributionError(f"non-finite saliency from {self.method}")


def _require_ongoing(board):
    if engine.outcome(board).is_terminal:
        raise AttributionError("saliency is defined on ongoing positions")


def _full_trace(params, board):
    _require_ongoing(board)
    trace = network.forward_boards(params, [board])
    return trace.x[0], trace, int(np.argmax(trace.policy[0]))


def gradient(params: network.NetworkParams, board: engine.BoardState) -> SaliencyMap:
    """d P(a*) / d input."""
    _, trace, a_star = _full_trace(params, board)
    g = network.action_input_grad(params, trace, a_star)
    return SaliencyMap(g[0], "gradient", a_star, board.key())


def smoothgrad(
    params: network.NetworkParams,
    board: engine.BoardState,
    rng: np.random.Generator,
    n: int = 25,
    sigma: float = 0.15,
) -> SaliencyMap:
    """Mean gradient over n Gaussian-perturbed copies of the encoding.

    Noise lands on all three channels of the encoding as-is; the
    perturbed tensors are generally not valid board encodings. The n
    noise draws are one ``rng.normal`` call (the same stream as n
    separate draws), the n copies one forward and one backward, and the
    gradients are summed in draw order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    x, _, a_star = _full_trace(params, board)
    shape = (n, *x.shape)
    noise = rng.normal(0.0, sigma, size=shape) if sigma > 0 else np.zeros(shape)
    grads = network.action_input_grad(params, network.forward(params, x + noise), a_star)
    acc = np.zeros_like(x, dtype=float)
    for g in grads:
        acc += g
    return SaliencyMap(acc / n, "smoothgrad", a_star, board.key())


def guided_backprop(params: network.NetworkParams, board: engine.BoardState) -> SaliencyMap:
    """Backward pass from the a* logit where every ReLU passes signal
    only if both its forward activation and the incoming signal are
    positive."""
    _, trace, a_star = _full_trace(params, board)
    g = network.action_input_grad(
        params,
        trace,
        a_star,
        at_logits=True,
        relu=lambda name, z, d: ((z > 0) & (d > 0)).astype(z.dtype),
    )
    return SaliencyMap(g[0], "guided_backprop", a_star, board.key())


def _stabilized(z: np.ndarray, eps: Optional[float]) -> np.ndarray:
    e = 1e-7 * float(np.mean(np.abs(z))) if eps is None else float(eps)
    e = max(e, 1e-12)
    return np.where(z >= 0, z + e, z - e)


def lrp_eps(
    params: network.NetworkParams, board: engine.BoardState, eps: Optional[float] = None
) -> SaliencyMap:
    """Epsilon-stabilized z-rule relevance propagation from the a* logit.

    ``eps`` None scales the stabilizer per layer to 1e-7 of the mean
    absolute pre-activation; pass a number for an absolute epsilon.
    """
    t = params.tensors
    _, trace, a_star = _full_trace(params, board)

    z = trace.policy_logits[0]
    relevance = np.zeros(network.N_ACTIONS)
    relevance[a_star] = z[a_star]
    s = relevance / _stabilized(z, eps)
    r_vec = trace.fc_a[-1][0] * (s @ t["policy_w"])

    for i in range(network.N_FC, 0, -1):
        z = trace.fc_z[i - 1][0]
        a_in = trace.fc_a[i - 2][0] if i >= 2 else trace.flat[0]
        s = r_vec / _stabilized(z, eps)
        r_vec = a_in * (s @ t[f"fc{i}_w"])

    c = params.arch.conv_channels
    r_map = r_vec.reshape(1, c, *network.CONV_HW[-1])
    for i in range(len(network.CONV_PADS), 0, -1):
        z = trace.conv_z[i - 1]
        a_in = trace.conv_a[i - 2] if i >= 2 else trace.x
        s = r_map / _stabilized(z, eps)
        r_map = a_in * network.conv_input_backward(
            s, t[f"conv{i}_w"], a_in.shape[2:], network.CONV_PADS[i - 1]
        )
    return SaliencyMap(r_map[0], "lrp_eps", a_star, board.key())


def deeplift_rescale(
    params: network.NetworkParams,
    board: engine.BoardState,
    baseline: Optional[np.ndarray] = None,
) -> SaliencyMap:
    """Rescale-rule contributions against a reference input.

    The default baseline is the colour-blind encoding (every piece
    hidden), which stays on the training manifold of partially-hidden
    boards. Each ReLU's local slope becomes (delta out)/(delta in),
    falling back to the plain subgradient where the pre-activation
    barely moves. Contributions are multiplier * (x - baseline) at the
    a* logit; they sum to the logit difference.
    """
    x, trace, a_star = _full_trace(params, board)
    if baseline is None:
        trace0 = network.forward_boards(params, [board], [frozenset()])
        baseline = trace0.x[0]
    else:
        trace0 = network.forward(params, baseline)

    local = {}
    for i in range(1, len(network.CONV_PADS) + 1):
        local[f"conv{i}"] = _rescale_slope(trace.conv_z[i - 1], trace0.conv_z[i - 1])
    for i in range(1, network.N_FC + 1):
        local[f"fc{i}"] = _rescale_slope(trace.fc_z[i - 1], trace0.fc_z[i - 1])

    mult = network.action_input_grad(
        params, trace, a_star, at_logits=True, relu=lambda name, z, d: local[name]
    )
    contrib = mult[0] * (x - np.asarray(baseline, dtype=x.dtype))
    return SaliencyMap(contrib, "deeplift_rescale", a_star, board.key())


def _rescale_slope(z: np.ndarray, z0: np.ndarray) -> np.ndarray:
    dz = z - z0
    da = np.maximum(z, 0.0) - np.maximum(z0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = da / dz
    return np.where(np.abs(dz) > 1e-9, slope, (z > 0).astype(z.dtype))


def random_saliency(
    params: network.NetworkParams, board: engine.BoardState, rng: np.random.Generator
) -> SaliencyMap:
    """Standard-normal noise per entry; the null baseline. It explains no
    decision, so it runs no forward and leaves ``a_star`` unset."""
    _require_ongoing(board)
    return SaliencyMap(rng.standard_normal((3, engine.ROWS, engine.COLS)), "random", None, board.key())


def input_saliency(params: network.NetworkParams, board: engine.BoardState) -> SaliencyMap:
    """The encoding itself: every piece equally salient."""
    x, _, a_star = _full_trace(params, board)
    return SaliencyMap(x.astype(float), "input", a_star, board.key())


_MAP_METHODS: Dict[str, Callable] = {
    "gradient": lambda params, board, rng, opts: gradient(params, board),
    "smoothgrad": lambda params, board, rng, opts: smoothgrad(
        params, board, rng, n=opts.get("n", 25), sigma=opts.get("sigma", 0.15)
    ),
    "guided_backprop": lambda params, board, rng, opts: guided_backprop(params, board),
    "lrp_eps": lambda params, board, rng, opts: lrp_eps(params, board, eps=opts.get("eps")),
    "deeplift_rescale": lambda params, board, rng, opts: deeplift_rescale(
        params, board, baseline=opts.get("baseline")
    ),
    "random": lambda params, board, rng, opts: random_saliency(params, board, rng),
    "input": lambda params, board, rng, opts: input_saliency(params, board),
}


def saliency(
    method: str,
    params: network.NetworkParams,
    board: engine.BoardState,
    rng: Optional[np.random.Generator] = None,
    **opts,
) -> SaliencyMap:
    """Dispatch a map-producing method by name."""
    fn = _MAP_METHODS.get(method)
    if fn is None:
        raise UnknownMethod(f"{method!r}; map methods: {sorted(_MAP_METHODS)}")
    if rng is None:
        rng = np.random.default_rng()
    return fn(params, board, rng, opts)


def aggregate(smap: SaliencyMap, board: engine.BoardState) -> dict:
    """Per-piece scores: |channel 0| + |channel 1| on occupied cells.

    Scores on empty cells and on the open-fields channel are ignored.
    """
    if smap.board_key != board.key():
        raise ContextMismatch("saliency map was computed for a different position")
    s = smap.scores
    return {
        (row, col): float(abs(s[0, row, col]) + abs(s[1, row, col]))
        for row, col in board.occupied_cells()
    }


def check_fraction(fraction) -> float:
    """``fraction`` as a float; ValueError outside [0, 1] and for NaN."""
    fraction = float(fraction)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    return fraction


def select_top(
    scores: dict,
    fraction: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    count: Optional[int] = None,
) -> frozenset:
    """Reveal the ceil(fraction * t) best-scoring cells.

    Exact score ties are broken uniformly at random via a random
    secondary sort key, so equal-scoring cells at the cut boundary are
    each selected with equal probability. ``count`` overrides the
    fraction-derived size (used by the top-3 ground-truth check).
    """
    cells = sorted(scores)
    t = len(cells)
    if count is None:
        if fraction is None or not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
        # the 1e-9 slack keeps float noise in fraction*t from inflating the ceil
        count = math.ceil(fraction * t - 1e-9)
    count = min(count, t)
    if count <= 0 or t == 0:
        return frozenset()
    vals = np.array([scores[c] for c in cells], dtype=float)
    rng = rng or np.random.default_rng()
    order = np.lexsort((rng.permutation(t), -vals))
    return frozenset(cells[i] for i in order[:count])


def _shapley_scorer(params, board, rng, fraction, opts):
    p = opts.get("p", 0.5)
    n = opts.get("n")
    if n is None:
        epsilon, delta = opts.get("epsilon", 0.25), opts.get("delta", 0.1)
        n = charfn.sample_count(epsilon, delta)
    if board.turn == 0:
        return {}
    nu = charfn.nu_pol(params, board)
    try:
        res = charfn.partial_shapley(nu, p, n, rng)
    except charfn.EmptyPermutationClass:
        # tiny t can leave no admissible position; fall back to plain sampling
        res = charfn.partial_shapley(nu, 0.0, n, rng)
    return res.as_dict()


def _fw_scorer(params, board, rng, fraction, opts):
    t = board.turn
    if t == 0:
        return {}
    k = opts.get("k")
    if k is None:
        k = max(1, math.ceil(fraction * t - 1e-9))
    cfg = fwmask.FWConfig(
        k=k,
        iterations=opts.get("iterations", 50),
        step_rule=opts.get("step_rule", "agnostic"),
    )
    return fwmask.mask_piece_scores(fwmask.fw_optimize(params, board, cfg).mask, board)


# Maskers that score pieces directly; every map method scores through ``aggregate``.
_SCORERS: Dict[str, Callable] = {"shapley": _shapley_scorer, "fw": _fw_scorer}


def method_names() -> tuple:
    return tuple(sorted({**_MAP_METHODS, **_SCORERS}))


def piece_scores(
    method: str,
    params: network.NetworkParams,
    board: engine.BoardState,
    rng: np.random.Generator,
    fraction: float = 0.5,
    opts: Optional[dict] = None,
) -> dict:
    """A masker's per-piece scores; ``fraction`` sets the FW budget k."""
    check_fraction(fraction)
    opts = opts or {}
    if method in _SCORERS:
        return _SCORERS[method](params, board, rng, fraction, opts)
    if method not in _MAP_METHODS:
        raise UnknownMethod(f"{method!r}; maskers: {method_names()}")
    return aggregate(saliency(method, params, board, rng, **opts), board)


def select_features(
    method: str,
    params: network.NetworkParams,
    board: engine.BoardState,
    fraction: float,
    rng: np.random.Generator,
    opts: Optional[dict] = None,
) -> frozenset:
    """The masker pipeline up to the coalition: score, then select.

    The input baseline shows the complete board, so it reveals everything.
    """
    if method == "input":
        fraction = 1.0
    return select_top(piece_scores(method, params, board, rng, fraction, opts), fraction, rng)


def dump_csv(maps, path) -> str:
    """Write maps as rows (method, board, channel, row, col, value)."""
    rows = []
    for smap in maps:
        bh = hashlib.sha256(smap.board_key).hexdigest()[:16]
        for (ch, row, col), val in np.ndenumerate(smap.scores):
            rows.append([smap.method, bh, ch, row, col, repr(float(val))])
    return write_csv(path, ["method", "board", "channel", "row", "col", "value"], rows)
