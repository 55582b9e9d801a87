"""Frank-Wolfe rate-distortion masks over the k-sparse polytope.

A continuous mask m in [0,1]^{6x7} damps the two colour channels of a
board encoding (the open-cells channel is never touched). Distortion is
the squared drop in the policy probability of the full-information best
move. Minimizing distortion over B_k = {v in [0,1]^42 : sum v <= k}
with the Frank-Wolfe method yields a saliency map whose large
entries mark the pieces that matter for the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import Error, engine, network
from .csvio import write_csv

N_CELLS = engine.ROWS * engine.COLS
LINE_SEARCH_GRID = 33  # step sizes the line-search rule tries, 0 to 1


class FWError(Error):
    pass


class NonFiniteGradient(FWError):
    pass


@dataclass
class FWConfig:
    k: float = 3
    iterations: int = 50
    step_rule: str = "agnostic"  # "agnostic" 2/(tau+2), or "line_search"

    def __post_init__(self):
        if not 0 <= self.k < math.inf:
            raise ValueError(f"k must be finite and non-negative, got {self.k}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.step_rule not in ("agnostic", "line_search"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")


@dataclass
class FWResult:
    mask: np.ndarray  # best iterate, 6x7
    distortion: float  # distortion of the best iterate
    trace: np.ndarray  # best-so-far distortion per iteration (non-increasing)
    meta: dict = field(default_factory=dict)
    # duality gap <-grad f(m_tau), v_tau - m_tau> per iteration
    gaps: np.ndarray = field(default_factory=lambda: np.zeros(0))


class _Objective:
    """Distortion and its mask gradient for one (params, board) pair.

    Keeps the board's full encoding from the reference forward; every
    later forward is one ``network.forward_masks`` on it, so the board is
    encoded once.
    """

    def __init__(self, params: network.NetworkParams, board: engine.BoardState):
        if engine.outcome(board).is_terminal:
            raise FWError("mask optimization is defined on ongoing positions")
        self.params = params
        self.board = board
        trace = network.forward_boards(params, [board])
        self.x_full, self.policy = trace.x[0], trace.policy[0]
        self.a_star = int(np.argmax(self.policy))
        self.p_full = float(self.policy[self.a_star])

    def _forward(self, ms: np.ndarray):
        """One ``network.forward_masks`` on the board under each mask of ``ms``."""
        trace = network.forward_masks(self.params, self.x_full, ms)
        # Python float ** per row: numpy's ** 2 multiplies where float pow calls pow()
        return trace, [(self.p_full - float(p)) ** 2 for p in trace.policy[:, self.a_star]]

    def values(self, ms: np.ndarray) -> np.ndarray:
        return np.array(self._forward(ms)[1])

    def value_and_grad(self, m: np.ndarray):
        trace, (d_val,) = self._forward(m[None])
        p_m = float(trace.policy[0, self.a_star])
        input_grad = network.action_input_grad(self.params, trace, self.a_star)
        # d/dm of (p_full - P(a*; x[m]))^2, channel 2 unaffected by m
        dp_dm = input_grad[0, 0] * self.x_full[0] + input_grad[0, 1] * self.x_full[1]
        grad = -2.0 * (self.p_full - p_m) * dp_dm
        if not np.isfinite(grad).all():
            raise NonFiniteGradient("non-finite distortion gradient")
        return d_val, grad.astype(float)


def lmo_ksparse(gradient: np.ndarray, k: float) -> np.ndarray:
    """Linear minimization over B_k: indicator of the up-to-k most
    negative gradient entries (positive entries are never selected)."""
    g = np.asarray(gradient, dtype=float).reshape(-1)
    if g.size != N_CELLS:
        raise FWError(f"gradient must have {N_CELLS} entries, got {g.size}")
    v = np.zeros(N_CELLS)
    budget = int(min(k, N_CELLS))
    if budget >= 1:
        order = np.argsort(g, kind="stable")
        take = [i for i in order[:budget] if g[i] < 0]
        v[take] = 1.0
    return v.reshape(engine.ROWS, engine.COLS)


def fw_optimize(
    params: network.NetworkParams,
    board: engine.BoardState,
    config: FWConfig,
    on_iterate: Optional[Callable] = None,
) -> FWResult:
    """Frank-Wolfe descent on the distortion over B_k.

    Starts at the uniform feasible point (k/42) * ones. The default step
    2/(tau + 2) needs no curvature knowledge; the line-search rule
    minimizes the objective along the segment on a scalar grid (the
    network output is not quadratic in m, so there is no closed form)
    and is never worse than staying put. Tracks and returns the best
    iterate seen, with the best-so-far distortion trace and the duality
    gap of every iteration. The line-search grid is one batched forward;
    the gradient forward of an iterate also gives its distortion.

    Once a step leaves the iterate unchanged bit for bit, the loop stops
    evaluating and repeats that iteration's gap and best distortion (and
    the unchanged iterate for ``on_iterate``) for the remaining taus.
    This is exact: the gradient, vertex and gap are functions of the
    iterate's bits, so the line search picks the same step again, and
    the agnostic step only shrinks, so a step that rounded to no change
    rounds to none again. Line-search FW stalls this way (gamma = 0)
    within a few iterations on typical boards.
    """
    obj = _Objective(params, board)
    k = min(config.k, N_CELLS)
    m = np.full((engine.ROWS, engine.COLS), k / N_CELLS)
    best_d, grad = obj.value_and_grad(m)
    best_m = m.copy()
    trace, gaps = [], []
    stalled = False
    for tau in range(config.iterations):
        if not stalled:
            v = lmo_ksparse(grad, config.k)
            direction = v - m
            gap = float(-(grad * direction).sum())
            if config.step_rule == "line_search":
                gammas = np.linspace(0.0, 1.0, LINE_SEARCH_GRID)
                vals = obj.values(m + gammas[:, None, None] * direction)
                gamma = float(gammas[int(np.argmin(vals))])
            else:
                gamma = 2.0 / (tau + 2.0)
            # clip guards float drift only; convexity keeps m in B_k
            m_next = np.clip(m + gamma * direction, 0.0, 1.0)
            stalled = m_next.tobytes() == m.tobytes()
            if not stalled:
                m = m_next
                cur, grad = obj.value_and_grad(m)
                if cur < best_d:
                    best_d, best_m = cur, m.copy()
        gaps.append(gap)
        trace.append(best_d)
        if on_iterate is not None:
            on_iterate(tau, m.copy())
    return FWResult(
        mask=best_m,
        distortion=best_d,
        trace=np.array(trace),
        gaps=np.array(gaps),
        meta={
            "k": config.k,
            "iterations": config.iterations,
            "step_rule": config.step_rule,
            "a_star": obj.a_star,
            "p_full": obj.p_full,
        },
    )


def mask_piece_scores(mask: np.ndarray, board: engine.BoardState) -> dict:
    """The mask entries of the occupied cells, keyed by (row, col)."""
    return {(row, col): float(mask[row, col]) for row, col in board.occupied_cells()}


def result_to_csv(result: FWResult, path, extra_meta: Optional[dict] = None) -> str:
    """Per-board record: metadata lines, then one row per cell."""
    meta = {**result.meta, "final_distortion": result.distortion, **(extra_meta or {})}
    rows = (
        [row, col, repr(float(result.mask[row, col]))]
        for row in range(engine.ROWS)
        for col in range(engine.COLS)
    )
    return write_csv(path, ["row", "col", "mask"], rows, meta)
