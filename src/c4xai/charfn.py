"""Characteristic functions over colour-feature coalitions and Shapley values.

A trained network turns a board into a cooperative game: the players
are the occupied cells (colour features), a coalition is the subset
whose colour is revealed, and the payoff is either the policy
probability of the full-information best move (nu_pol) or the value
estimate (nu_val) on the partially revealed board.

Shapley values are exact (``exact_shapley``: the subset form of the
restricted permutation sum, small ground sets only) or sampled
(``partial_shapley``: permutation sampling, at a Hoeffding sample count
from ``sample_count`` or a given one), each for every predecessor
floor p. Both query only coalitions at or above the size floor
ceil(p*t), so at p > 0 every query stays on the training manifold of
partially-hidden boards; p = 0 gives the Shapley values.

Every coalition is evaluated through ``eval_masks``, which plans its
queries in blocks of BLOCK_ROWS before evaluating any; ``eval_mask``
answers a cache hit itself and hands a miss to ``eval_masks``. A
network game evaluates its blocks on the calling thread plus one helper
thread when the BLAS threads leave a usable CPU idle and no other lane
holds the process's helper slot (none when the BLAS thread count is
not pinned; see ``network._helper_threads`` and ``network._in_turns``).
A block's own chunked conv layers then run on the block's thread.
Each block is still one ``forward_masks`` call on the same grids, so
the values, the cache and the counters are those of evaluating the
blocks in turn. Which block a coalition lands in depends on what the
game's cache already holds, and a network game's value can depend on
its block (see ``_NetworkGame``), so values repeat for the same
sequence of calls on a fresh game, not per coalition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from . import Error, engine, network
from .csvio import write_csv

EXACT_LIMIT = 12  # 2^t coalition table guard
BLOCK_ROWS = 64  # queries per eval_masks block: one network forward
MASK_BITS = 63  # players an int64 coalition bitmask can hold


class CharFnError(Error):
    pass


class GroundSetTooLarge(CharFnError):
    pass


class EmptyPermutationClass(CharFnError):
    """No permutation position satisfies the predecessor-size floor."""


class MaskOutOfRange(CharFnError):
    """A coalition bitmask outside [0, 2^t): it names a player the ground set lacks."""


class CharacteristicFn:
    """Set function over a fixed ground set, memoized by coalition bitmask.

    ``fn`` receives a frozenset of ground-set members; a subclass may
    instead override ``_evaluate``, which receives the uncached coalition
    bitmasks of a block (bit i set: ``ground[i]`` is in).

    The cache keeps every evaluated coalition for the object's lifetime:
    a game is built for one explained position, so it holds at most the
    distinct coalitions its caller asked for.

    Counters: ``queries`` (coalitions asked for, one per eval_mask call
    or eval_masks entry), ``hits`` (queries answered without evaluating
    the game) and ``batches`` (calls of the evaluation hook).
    ``queries - hits`` is the number of rows evaluated.
    """

    def __init__(self, ground: Iterable, fn: Callable):
        self.ground = tuple(ground)
        self._fn = fn
        self._index = {f: i for i, f in enumerate(self.ground)}
        self._cache = {}
        self.queries = 0
        self.hits = 0
        self.batches = 0

    @property
    def t(self) -> int:
        return len(self.ground)

    def mask_of(self, coalition: Iterable) -> int:
        mask = 0
        for f in coalition:
            mask |= 1 << self._index[f]
        return mask

    def members(self, mask: int) -> frozenset:
        return frozenset(self.ground[i] for i in range(self.t) if mask >> i & 1)

    def __call__(self, coalition: Iterable) -> float:
        mask = self.mask_of(coalition)
        return self.eval_mask(mask)

    def eval_mask(self, mask: int) -> float:
        """The value of one coalition bitmask. A cached integer mask is a
        hit; anything else goes through ``eval_masks``, which checks it
        and evaluates a miss as a block of one (one batch)."""
        hit = self._cache.get(mask)
        # 2.0 finds coalition 2's entry, but names no coalition
        if hit is None or not isinstance(mask, (int, np.integer)):
            return float(self.eval_masks([mask])[0])
        self.hits += 1
        self.queries += 1
        return hit

    def eval_masks(self, masks) -> np.ndarray:
        """Values of many coalition bitmasks, in query order.

        The queries are planned in blocks of BLOCK_ROWS. A block's
        coalitions that are neither cached nor planned by an earlier
        block go to the game in one hook call (one network forward for
        nu_pol and nu_val). ``_evaluate_blocks`` evaluates those lists,
        their values are stored in block order once every block is
        evaluated, and every query is then read back through eval_mask.
        Values, cache and counters are those of walking the blocks one
        after the other, whichever thread evaluated a block; a block
        that raises leaves the cache and the counters as they were.
        A coalition's block depends on this call and on what the cache
        already holds, and a network game's value can depend on its
        block (see ``_NetworkGame``): values repeat for one sequence of
        calls, not per coalition.
        """
        masks = np.asarray(masks).reshape(-1)
        # an empty list reads as float64; Python ints past uint64 as objects
        if masks.size and not (
            masks.dtype.kind in "biu" and masks.min() >= 0 and int(masks.max()) >> self.t == 0
        ):
            raise MaskOutOfRange(f"coalition masks must be integers in [0, 2^{self.t})")
        masks = masks.astype(np.int64).tolist()
        planned = set()
        blocks = []
        for start in range(0, len(masks), BLOCK_ROWS):
            block = masks[start : start + BLOCK_ROWS]
            missing = [m for m in dict.fromkeys(block) if m not in self._cache and m not in planned]
            if missing:
                planned.update(missing)
                blocks.append(missing)
        del planned  # as large as the cache this call adds to
        for block, values in zip(blocks, self._evaluate_blocks(blocks)):
            self.batches += 1
            for mask, val in zip(block, values):
                self._cache[mask] = float(val)
            self.hits -= len(block)  # their read-back below counts them as hits
        return np.fromiter(map(self.eval_mask, masks), dtype=float, count=len(masks))

    def _evaluate(self, masks: list):
        """The game's values on the coalition bitmasks ``masks``: the one
        evaluation hook. Here ``fn`` of each coalition's member set."""
        return [self._fn(self.members(m)) for m in masks]

    def _evaluate_blocks(self, blocks: list) -> list:
        """The values of each block of ``blocks``, in block order: one
        ``_evaluate`` call per block, the next one only after the last."""
        return [self._evaluate(block) for block in blocks]


class _NetworkGame(CharacteristicFn):
    """nu_pol / nu_val: a hook call is one ``network.forward_masks`` of
    the board's full encoding under the block's 0/1 coalition grids.

    A coalition's value depends on the block it is evaluated in: a
    small GEMM's rows, and so a float32 forward's low bits, depend on
    the other rows of the block. So values are reproducible per
    sequence of calls, not per coalition. On a C = 8 float32 net and an
    8-piece board, ``exact_shapley(nu)`` called after
    ``exact_shapley(nu, 0.5)`` on the same game finds the coalitions
    below the floor missing and evaluates them in other blocks than a
    fresh game does; its values differ from the fresh game's by up to
    2.7e-10 in 1.25e-6 (2e-4 relative).
    """

    def __init__(self, params: network.NetworkParams, board: engine.BoardState, head: str):
        if engine.outcome(board).is_terminal:
            raise CharFnError("characteristic functions are defined on ongoing positions")
        super().__init__(board.occupied_cells(), None)
        trace = network.forward_boards(params, [board])
        self.head = head
        self.board = board
        self.a_star = int(np.argmax(trace.policy[0]))
        self._params = params
        self._x = trace.x[0]
        self._rows, self._cols = np.array(self.ground, dtype=np.intp).reshape(-1, 2).T

    def _evaluate(self, masks):
        # bit i of each mask reveals ground[i]: scatter the (n, t) bits onto their cells
        bits = np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(self.t) & 1
        grids = np.zeros((len(masks), engine.ROWS, engine.COLS), dtype=self._x.dtype)
        grids[:, self._rows, self._cols] = bits
        trace = network.forward_masks(self._params, self._x, grids)
        # a copy: a view would keep the block's whole policy alive until stored
        return trace.policy[:, self.a_star].copy() if self.head == "policy" else trace.value

    def _evaluate_blocks(self, blocks):
        """Each block is one ``_evaluate`` call, as in the sequential
        walk, on the calling thread and the helper thread when
        ``network._in_turns`` starts one (see there)."""
        return network._in_turns(self._evaluate, blocks)


def nu_pol(params: network.NetworkParams, board: engine.BoardState) -> CharacteristicFn:
    """Policy-head game: P(a*; masked board), a* fixed from full information."""
    return _NetworkGame(params, board, "policy")


def nu_val(params: network.NetworkParams, board: engine.BoardState) -> CharacteristicFn:
    """Value-head game: V(masked board)."""
    return _NetworkGame(params, board, "value")


@dataclass
class ShapleyResult:
    features: tuple
    values: np.ndarray
    n_samples: int = 0  # 0 marks exact enumeration
    p: float = 0.0
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(zip(self.features, self.values))

    def to_csv(self, path, extra_meta: Optional[dict] = None) -> str:
        meta = {
            "n_samples": self.n_samples,
            "p": self.p,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }
        meta.update(self.meta)
        meta.update(extra_meta or {})
        rows = ([row, col, repr(float(phi))] for (row, col), phi in zip(self.features, self.values))
        return write_csv(path, ["row", "col", "phi"], rows, meta)


def sample_count(epsilon: float, delta: float) -> int:
    """Permutations needed for +-epsilon accuracy at confidence 1 - delta.

    The count 0.5 * epsilon^-2 * ln(2/delta) is Hoeffding's bound for
    the mean of marginals with a range of 1, for one player: there is no
    union bound over the t players. A marginal of a probability lies in
    [-1, 1], a range of 2, for which the same (epsilon, delta) would
    need four times as many permutations. The count is the paper's.
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return int(math.ceil(0.5 * epsilon**-2 * math.log(2.0 / delta)))


def exact_shapley(nu: CharacteristicFn, p: float = 0.0) -> ShapleyResult:
    """Exact partial Shapley values: the restricted permutation sum in
    its subset form,

        phi_i = sum over S without i, |S| >= ceil(p*t), of
                s! (t-1-s)! / t! * (nu(S + i) - nu(S)),

    the target of ``partial_shapley`` (p = 0: the Shapley values). Only
    the admissible coalitions (size >= the floor) are queried, in
    ascending mask order and by one ``eval_masks`` call; at p = 0 that
    is every mask 0 .. 2^t - 1.
    """
    t = nu.t
    floor = _predecessor_floor(p, t)
    if t > EXACT_LIMIT:
        raise GroundSetTooLarge(f"t = {t} exceeds the exact limit {EXACT_LIMIT}")
    masks = np.arange(1 << t)
    sizes = (masks[:, None] >> np.arange(t) & 1).sum(axis=1)
    admissible = masks[sizes >= floor]
    values = np.zeros(1 << t)
    values[admissible] = nu.eval_masks(admissible)
    fact = [math.factorial(k) for k in range(t + 1)]
    weights = np.array([fact[s] * fact[t - 1 - s] / fact[t] for s in range(t)])
    phi = np.zeros(t)
    for i in range(t):
        without = admissible[(admissible >> i & 1) == 0]
        phi[i] = weights[sizes[without]] @ (values[without | 1 << i] - values[without])
    return ShapleyResult(features=nu.ground, values=phi, p=p, meta={"form": "subset"})


def _predecessor_floor(p: float, t: int) -> int:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    floor = int(math.ceil(p * t - 1e-9))
    if floor >= t and t > 0:
        raise EmptyPermutationClass(f"p = {p} leaves no admissible position for t = {t}")
    return floor


def partial_shapley(
    nu: CharacteristicFn,
    p: float,
    n_permutations: int,
    rng: np.random.Generator,
    epsilon: Optional[float] = None,
    delta: Optional[float] = None,
) -> ShapleyResult:
    """Sampled partial Shapley values; at p = 0 the plain permutation
    sampling estimate of the Shapley values (form "sampled").

    Each sampled permutation is walked from the coalition of its first
    ceil(p*t) entries upward, so no coalition below the floor is ever
    queried. A feature accumulates a marginal only at admissible
    positions; the per-feature mean over admissible hits is rescaled by
    the admissible fraction (t - floor)/t, matching the 1/t!
    normalization of the restricted permutation sum (``exact_shapley``
    at the same p).

    All permutations are drawn first; their walks form one coalition
    matrix (prefix ORs of the permutations' bits) that is evaluated by
    one ``eval_masks`` call in walk order, and the marginals are summed
    per feature in that same order.
    """
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    t = nu.t
    floor = _predecessor_floor(p, t)
    if t > MASK_BITS:
        raise GroundSetTooLarge(f"t = {t} exceeds the {MASK_BITS} bits of an int64 coalition mask")
    perms = np.array([rng.permutation(t) for _ in range(n_permutations)], dtype=np.int64)
    perms = perms.reshape(n_permutations, t)  # also for t = 0
    prefix = np.bitwise_or.accumulate(1 << perms, axis=1)
    start = prefix[:, floor - 1] if floor else np.zeros(n_permutations, dtype=np.int64)
    walks = np.column_stack([start, prefix[:, floor:]])
    marginals = np.diff(nu.eval_masks(walks).reshape(walks.shape), axis=1)
    acc = np.zeros(t)
    np.add.at(acc, perms[:, floor:], marginals)
    hits = np.bincount(perms[:, floor:].ravel(), minlength=t)
    cond_mean = acc / np.maximum(hits, 1)  # a player never hit has acc = +0.0
    values = cond_mean * ((t - floor) / t if t else 0.0)
    return ShapleyResult(
        features=nu.ground,
        values=values,
        n_samples=n_permutations,
        p=p,
        epsilon=epsilon,
        delta=delta,
        meta={"form": "partial-sampled" if p else "sampled"},
    )
