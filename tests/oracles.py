"""Independent reference implementations that the tests compare against.

None of these is used by the package: the t! permutation enumerations
are the second formula for ``charfn.exact_shapley``'s subset form, the
double loop over masks sums the p = 0 subset form term by term, ``QueryLog``
records which coalition sizes an estimator asks for,
``distortion`` and ``distortion_gradient`` expose the FW objective and
its gradient on their own, ``play_one_game`` is a plain rules loop
without ``engine.play_lockstep``, and ``play_series_one_by_one`` plays a
series through it one game at a time.
"""

import math
from itertools import permutations

import numpy as np

from c4xai import charfn, engine, fwmask, network

PERM_LIMIT = 8  # t! enumeration guard


def exact_partial_shapley(nu: charfn.CharacteristicFn, p: float) -> charfn.ShapleyResult:
    """Enumerate the permutation sum restricted to predecessor sets of
    size >= ceil(p*t), normalized by t!."""
    t = nu.t
    floor = charfn._predecessor_floor(p, t)
    if t > PERM_LIMIT:
        raise charfn.GroundSetTooLarge(f"t = {t} exceeds the permutation limit {PERM_LIMIT}")
    values = np.zeros(1 << t)
    on_manifold = [m for m in range(1 << t) if bin(m).count("1") >= floor]
    values[on_manifold] = nu.eval_masks(on_manifold)
    phi = np.zeros(t)
    for perm in permutations(range(t)):
        mask = 0
        for pos, i in enumerate(perm):
            if pos >= floor:
                phi[i] += values[mask | (1 << i)] - values[mask]
            mask |= 1 << i
    return charfn.ShapleyResult(
        features=nu.ground, values=phi / math.factorial(t), p=p, meta={"form": "partial-exact"}
    )


def exact_shapley_by_permutations(nu: charfn.CharacteristicFn) -> charfn.ShapleyResult:
    """Exact values via the full permutation sum (the partial sum at p = 0)."""
    res = exact_partial_shapley(nu, 0.0)
    res.meta = {"form": "permutation"}
    return res


def subset_sum_loop(nu: charfn.CharacteristicFn) -> np.ndarray:
    """The Shapley values by a Python double loop over players and all
    2^t coalitions: the p = 0 subset sum, one term at a time."""
    t = nu.t
    values = nu.eval_masks(np.arange(1 << t))
    fact = [math.factorial(k) for k in range(t + 1)]
    weights = [fact[s] * fact[t - 1 - s] / fact[t] for s in range(t)]
    phi = np.zeros(t)
    for i in range(t):
        bit = 1 << i
        for mask in range(1 << t):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            phi[i] += weights[s] * (values[mask | bit] - values[mask])
    return phi


class QueryLog:
    """Wraps a CharacteristicFn and records every queried coalition size."""

    def __init__(self, nu: charfn.CharacteristicFn):
        self._nu = nu
        self.ground = nu.ground
        self.sizes = []

    @property
    def t(self):
        return self._nu.t

    def eval_masks(self, masks) -> np.ndarray:
        values = self._nu.eval_masks(masks)
        masks = np.asarray(masks, dtype=np.int64).reshape(-1)
        self.sizes.extend(bin(m).count("1") for m in masks.tolist())
        return values

    @property
    def min_size(self) -> int:
        return min(self.sizes) if self.sizes else -1


def distortion(
    params: network.NetworkParams,
    board: engine.BoardState,
    a_star: int,
    m: np.ndarray,
) -> float:
    """Squared drop of P(a_star) when colours are damped by mask m."""
    obj = fwmask._Objective(params, board)
    if a_star != obj.a_star:
        # caller pins the explained action; read its full-information prob
        obj.a_star = int(a_star)
        obj.p_full = float(obj.policy[a_star])
    return float(obj.values(np.asarray(m, dtype=float)[None])[0])


def distortion_gradient(
    params: network.NetworkParams, board: engine.BoardState, m: np.ndarray
) -> np.ndarray:
    """Exact gradient of the distortion w.r.t. the mask entries."""
    _, grad = fwmask._Objective(params, board).value_and_grad(np.asarray(m, dtype=float))
    return grad


def play_one_game(movers) -> tuple:
    """One game from the empty board, ``movers`` mapping RED and BLUE to
    ``board -> column``. Returns (final board, Outcome, offending colour
    or None), as ``engine.play_lockstep`` does per game."""
    board = engine.new_board()
    while True:
        col = movers[board.to_move](board)
        if col not in board.legal_moves():
            return board, engine.Outcome(engine.ONGOING), board.to_move
        board = engine.apply_move(board, col)
        out = engine.outcome(board)
        if out.is_terminal:
            return board, out, None


def play_series_one_by_one(make_a, make_b, seeds) -> list:
    """``engine.play_series`` without lockstep: one ``play_one_game`` per
    SeedSequence, with movers built on that game's rng alone and A red
    in even-numbered games."""
    games = []
    for i, ss in enumerate(seeds):
        rngs = [np.random.default_rng(ss)]
        choose_a, choose_b = make_a(rngs), make_b(rngs)
        colour_a = engine.RED if i % 2 == 0 else engine.BLUE
        colour_b = engine.other(colour_a)
        final, out, offender = play_one_game(
            {
                colour_a: lambda board: choose_a([0], [board])[0],
                colour_b: lambda board: choose_b([0], [board])[0],
            }
        )
        games.append(
            (
                engine.result_for(out, offender, colour_a),
                engine.result_for(out, offender, colour_b),
                final.turn,
            )
        )
    return games
