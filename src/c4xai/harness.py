"""Evaluation harness: ground-truth scoring, information-performance
curves, and the masker round-robin tournament.

The tournament protocol: each side owns an attribution method (the
masker). Before a move, the mover's masker scores the pieces of the
full-information board, the top fraction is revealed, and the network
picks its move from the masked view by sampling (non-competitive play).
Colours alternate between games; an illegal move loses the game for the
offender and is also tallied separately.

Matches, curves and ``play_vs_random`` play their games in lockstep
through ``engine.play_series``. A network side moves by the one ply rule
of ``network.policy_mover``: reveal, one forward per ply, pick.
All randomness flows from one root seed through per-game child rngs,
so results are bit-exact on reruns with the same seed and game count.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import Error, __version__, attribution, engine, mcts, network
from .csvio import write_csv


class HarnessError(Error):
    pass


class InsufficientCases(HarnessError):
    def __init__(self, message, collected=None):
        super().__init__(message)
        self.collected = collected or []


# ---------------------------------------------------------------------------
# ground truth: positions one move before a confident win
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundTruthCase:
    board: engine.BoardState  # position before the winning move
    winning_move: int
    cells: frozenset  # the already-placed pieces completing the line(s)
    confidence: float


def harvest_ground_truth(
    params: network.NetworkParams,
    n_cases: int,
    rng: np.random.Generator,
    confidence: float = 0.9,
    game_cap: Optional[int] = None,
) -> list:
    """Self-play until ``n_cases`` games end in a win whose final move
    was the policy argmax with at least ``confidence`` probability.

    The registered case is the position just before that move; its
    ground-truth cells are the union of all completed lines minus the
    cell the winning move lands on."""
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    if not 0.0 <= confidence <= 1.0:  # a NaN or out-of-range floor would play every game
        raise ValueError(f"confidence must lie in [0, 1], got {confidence}")
    if game_cap is None:
        game_cap = max(200, 60 * n_cases)
    cases = []
    last = None  # the latest move: (board before it, column, was argmax, probability)

    def record(_, board, x, policy, value, action):
        nonlocal last
        last = (board, action, action == int(np.argmax(policy)), float(policy[action]))

    choose = network.policy_mover(params, [rng], on_move=record)
    for _ in range(game_cap):
        if len(cases) >= n_cases:
            break
        # one game at a time, all on ``rng``; an illegal move forfeits the game and gives no case
        _, out, offender = engine.play_lockstep(choose, 1)[0]
        pre, action, was_argmax, conf = last
        if offender is None and out.kind != engine.DRAW and was_argmax and conf >= confidence:
            landing = (pre.column_height(action), action)
            cells = frozenset(out.winning_cells) - {landing}
            cases.append(
                GroundTruthCase(board=pre, winning_move=action, cells=cells, confidence=conf)
            )
    if len(cases) < n_cases:
        raise InsufficientCases(
            f"collected {len(cases)}/{n_cases} cases in {game_cap} games "
            f"(confidence floor {confidence})",
            collected=cases,
        )
    return cases


def ground_truth_score(
    cases: Sequence[GroundTruthCase],
    method: Union[str, Callable],
    params: network.NetworkParams,
    rng: np.random.Generator,
    fraction: float = 0.5,
) -> np.ndarray:
    """Histogram over {0,1,2,3}: per case, how many of the top-3 salient
    pieces are ground-truth pieces (the union for multi-line wins)."""
    hist = np.zeros(4, dtype=int)
    for case in cases:
        if callable(method):
            scores = method(params, case.board, rng)
        else:
            scores = attribution.piece_scores(
                method, params, case.board, rng, fraction=fraction
            )
        top3 = attribution.select_top(scores, None, rng, count=3)
        hist[min(len(top3 & case.cells), 3)] += 1
    return hist


# ---------------------------------------------------------------------------
# movers
# ---------------------------------------------------------------------------

def masked_policy_mover(
    params: network.NetworkParams,
    method: Optional[str],
    fraction: float,
    rngs: Sequence[np.random.Generator],
    competitive: bool = False,
    opts: Optional[dict] = None,
) -> Callable:
    """The masker/player pipeline as a ``play_series`` chooser:
    ``network.policy_mover`` with ``attribution.select_features`` as its
    reveal, game i on ``rngs[i]``, taking the argmax when ``competitive``;
    ``method`` None plays on the full-information board. ``opts`` may set
    ``n`` (Shapley permutations) and ``iterations`` (FW iterations);
    every other masker setting is fixed."""
    reveal = None
    if method is not None:
        reveal = lambda board, rng: attribution.select_features(
            method, params, board, fraction, rng, opts=opts
        )
    return network.policy_mover(params, rngs, reveal, argmax=competitive)


def random_mover(rngs: Sequence[np.random.Generator]) -> Callable:
    def choose(indices, boards):
        cols = []
        for i, board in zip(indices, boards):
            legal = board.legal_moves()
            cols.append(int(legal[int(rngs[i].integers(len(legal)))]))
        return cols

    return choose


# ---------------------------------------------------------------------------
# match / tournament accounting
# ---------------------------------------------------------------------------

@dataclass
class MatchResult:
    """Counts for one pairing. wins_a + wins_b + draws = n_games; a win
    by the opponent's illegal move counts as a win and is additionally
    tallied in illegal_a/illegal_b against the offender."""

    method_a: str
    method_b: str
    wins_a: int = 0
    wins_b: int = 0
    draws: int = 0
    illegal_a: int = 0
    illegal_b: int = 0
    n_games: int = 0
    fraction: float = 0.5
    seed: Optional[int] = None

    @property
    def score_a(self) -> float:
        return self.wins_a + self.draws / 2.0

    @property
    def score_b(self) -> float:
        return self.wins_b + self.draws / 2.0

    def verify(self):
        assert self.wins_a + self.wins_b + self.draws == self.n_games
        assert self.illegal_a <= self.wins_b and self.illegal_b <= self.wins_a
        return self


def play_match(
    method_a: str,
    method_b: str,
    params: network.NetworkParams,
    n_games: int,
    fraction: float = 0.5,
    seed: int = 0,
    workers: int = 1,
    competitive: bool = False,
    opts: Optional[dict] = None,
) -> MatchResult:
    """Masker-vs-masker match; method A moves first in ceil(n/2) games.
    ``workers`` accepts only 1; it stays while ``perfbench/workloads.py``
    passes it. Both maskers read the one ``opts``: ``n`` sets the Shapley
    masker's permutations, ``iterations`` the FW masker's, and every other
    setting is fixed."""
    if n_games < 1:
        raise ValueError("n_games must be >= 1")
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    attribution.check_fraction(fraction)  # the input masker would not reach the check
    attribution.check_method(method_a)
    attribution.check_method(method_b)
    make_a, make_b = (
        partial(masked_policy_mover, params, method, fraction, competitive=competitive, opts=opts)
        for method in (method_a, method_b)
    )
    games = engine.play_series(make_a, make_b, np.random.SeedSequence(seed).spawn(n_games))
    results_a = [a for a, _, _ in games]
    results_b = [b for _, b, _ in games]
    return MatchResult(
        method_a=method_a,
        method_b=method_b,
        wins_a=results_a.count("win"),
        wins_b=results_b.count("win"),
        draws=results_a.count("draw"),
        illegal_a=results_a.count("illegal"),
        illegal_b=results_b.count("illegal"),
        n_games=n_games,
        fraction=fraction,
        seed=seed,
    ).verify()


MATCH_COLUMNS = (
    "method_a",
    "method_b",
    "wins_a",
    "wins_b",
    "draws",
    "illegal_a",
    "illegal_b",
    "score_a",
    "score_b",
    "n_games",
)


@dataclass
class RoundRobinResult:
    methods: tuple
    matches: list
    n_games_per_pair: int

    def scores(self) -> dict:
        total = {m: 0.0 for m in self.methods}
        for match in self.matches:
            total[match.method_a] += match.score_a
            total[match.method_b] += match.score_b
        return total

    def to_csv(self, path) -> str:
        rows = ([getattr(m, c) for c in MATCH_COLUMNS] for m in self.matches)
        return write_csv(path, MATCH_COLUMNS, rows)


def round_robin(
    methods: Sequence[str],
    params: network.NetworkParams,
    n_games_per_pair: int,
    fraction: float = 0.5,
    seed: int = 0,
) -> RoundRobinResult:
    """Every unordered pair once; no self-pairings. Every method is
    checked before the first match."""
    methods = tuple(methods)
    if len(methods) < 2:
        raise ValueError("need at least two methods")
    if len(set(methods)) < len(methods):
        raise ValueError(f"repeated method in {methods}")
    for method in methods:
        attribution.check_method(method)
    pairs = list(combinations(methods, 2))
    pair_seeds = np.random.SeedSequence(seed).spawn(len(pairs))
    matches = []
    for (ma, mb), ss in zip(pairs, pair_seeds):
        sub_seed = int(ss.generate_state(1)[0])
        matches.append(play_match(ma, mb, params, n_games_per_pair, fraction, seed=sub_seed))
    return RoundRobinResult(methods=methods, matches=matches, n_games_per_pair=n_games_per_pair)


# ---------------------------------------------------------------------------
# information-performance curves and simple benchmarks
# ---------------------------------------------------------------------------

def _opponent_mover(opponent, params, rngs):
    if opponent == "self":
        return network.policy_mover(params, rngs)
    if opponent == "random":
        return random_mover(rngs)
    if isinstance(opponent, tuple) and opponent and opponent[0] == "mcts":
        return mcts.search_mover(mcts.MCTSConfig(simulations=int(opponent[1])), rngs)
    if hasattr(opponent, "best_move"):
        return lambda _, boards: [opponent.best_move(board)[0] for board in boards]
    raise ValueError(f"unknown opponent {opponent!r}")


def info_perf_curve(
    params: network.NetworkParams,
    selector: str,
    opponent,
    fractions: Iterable[float],
    n_games: int,
    seed: int = 0,
) -> list:
    """Win rate (and mean game length) per revealed fraction.

    ``selector`` is any registered method; 'random' reproduces uniform
    random hiding. ``opponent`` is 'self' (full-information twin),
    'random', ('mcts', sims), or a move oracle: any object whose
    ``best_move(board)`` returns (column, score or None). The selector
    and every fraction are checked before the first game.
    """
    if n_games < 1:
        raise ValueError("n_games must be >= 1")
    attribution.check_method(selector)
    fractions = [attribution.check_fraction(f) for f in fractions]
    make_opponent = partial(_opponent_mover, opponent, params)
    rows = []
    for f_idx, fraction in enumerate(fractions):
        # seed keyed on (seed, fraction index): fractions can be re-run singly
        seeds = np.random.SeedSequence([seed, f_idx]).spawn(n_games)
        make_agent = partial(masked_policy_mover, params, selector, fraction)
        games = engine.play_series(make_agent, make_opponent, seeds)
        stats = mcts.WinStats.tally([agent for agent, _, _ in games], seeds)
        rows.append(
            {
                "fraction": fraction,
                "n_games": n_games,
                "wins": stats.wins,
                "draws": stats.draws,
                "losses": stats.losses + stats.illegal,
                "illegal": stats.illegal,
                "win_rate": stats.win_rate,
                "mean_length": float(np.mean([length for _, _, length in games])),
            }
        )
    return rows


CURVE_COLUMNS = ("fraction", "n_games", "wins", "draws", "losses", "illegal", "win_rate", "mean_length")


def curve_to_csv(rows, path) -> str:
    return write_csv(path, CURVE_COLUMNS, ([row[c] for c in CURVE_COLUMNS] for row in rows))


def play_vs_random(
    params: network.NetworkParams, n_games: int, seed: int = 0
) -> mcts.WinStats:
    """Competitive (argmax) full-information agent against a uniform
    random mover, colours alternating."""
    if n_games < 1:
        raise ValueError("n_games must be >= 1")
    seeds = np.random.SeedSequence(seed).spawn(n_games)
    make_agent = partial(network.policy_mover, params, argmax=True)
    games = engine.play_series(make_agent, random_mover, seeds)
    return mcts.WinStats.tally([agent for agent, _, _ in games], seeds)


# ---------------------------------------------------------------------------
# sidecar metadata
# ---------------------------------------------------------------------------

def write_sidecar(
    csv_path,
    command: Sequence[str],
    seed: Optional[int],
    checkpoint_path=None,
    config_obj=None,
    wall_time_s: Optional[float] = None,
) -> str:
    """JSON sidecar naming the producing command, seed, and content
    hashes of the checkpoint and config used, and the seconds the
    command took (``wall_time_s``; null when not given).

    It also records the c4xai, Python, numpy and BLAS versions and the
    BLAS thread variables (null when unset): which BLAS build runs, and
    how, decides the low bits of every network output.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    meta = {
        "c4xai_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        **{name: os.environ.get(name) for name in network.BLAS_THREAD_VARS},
        "command": list(command),
        "seed": seed,
        "checkpoint_sha256": network.file_sha256(checkpoint_path) if checkpoint_path else None,
        "config_sha256": (
            hashlib.sha256(
                json.dumps(config_obj, sort_keys=True, default=str).encode()
            ).hexdigest()
            if config_obj is not None
            else None
        ),
        "wall_time_s": wall_time_s,
    }
    path = str(csv_path) + ".meta.json"
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
