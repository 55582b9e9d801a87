"""The three benchmark workloads: ``train``, ``explain`` and ``play``.

Each workload has a ``setup(seed, work_dir)`` that builds its inputs from
the workload seed and a ``run_round(ctx, index)`` that runs one round:
a fixed bundle of timed calls into the public c4xai API, each followed
(outside its timed region) by a correctness check. A round returns the
per-call timings by kind with the host-speed samples taken between the
calls, the check results, a digest of every output and the round's
workload-shape counts. Round ``i`` depends only on the seed and ``i``,
so a traced replay of a round must reproduce its digest.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from c4xai import attribution, charfn, engine, fwmask, harness, mcts, network, training

from host import HostClock
from spans import CallCounter

C = 64

# explain: every round explains a pair of boards whose piece counts sum
# to 34, so rounds cost about the same while t still spans 8..26
T_PAIRS = ((8, 26), (10, 24), (12, 22), (14, 20), (16, 18))
EXPLAIN_ROUNDS_BUILT = 4 * len(T_PAIRS)  # later rounds reuse these boards
SHAPLEY_P = 0.5
SHAPLEY_PERMS = charfn.sample_count(0.1, 0.05)  # 185
FW_ITERATIONS = 50
SALIENCY_METHODS = ("gradient", "smoothgrad", "guided_backprop", "lrp_eps", "deeplift_rescale")

# play: every pairing of these maskers, once with each side moving first
MASKERS = ("gradient", "guided_backprop", "lrp_eps", "deeplift_rescale", "random")
MATCH_FRACTION = 0.5
MCTS_SIMULATIONS = 200
MCTS_CALLS_PER_ROUND = 2
MCTS_GAMES_PER_CALL = 2

TRAIN_GAMES_PER_ROUND = 10  # one PPO update at the default update_every


class CheckFailed(Exception):
    pass


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Round:
    calls: list = field(default_factory=list)  # (kind, raw seconds, host sample index before)
    attempted: int = 0
    failed: int = 0
    digest: object = field(default_factory=hashlib.sha256)
    shape: dict = field(default_factory=dict)
    on_op: object = None  # called with the kind before every timed call
    host: HostClock = field(default_factory=HostClock)

    def call(self, kind, fn, verify):
        """Time ``fn()``, then verify its output outside the timed region.
        Returns the output, or None when the call or its check failed."""
        self.attempted += 1
        if self.on_op is not None:
            self.on_op(kind)
        self.host.sample()
        try:
            t0 = time.perf_counter()
            out = fn()
            self.calls.append((kind, time.perf_counter() - t0, len(self.host.samples) - 1))
            verify(out)
            return out
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def finish(self):
        """Take the host sample that closes the last call."""
        self.host.sample(force=True)
        return self

    def kind_seconds(self, kind):
        """Per-call seconds of ``kind`` at unloaded-host speed: each call
        is divided by the host factor of the samples just before and
        just after it."""
        return [raw / self.host.factor_between(i) for k, raw, i in self.calls if k == kind]

    @property
    def seconds(self) -> float:
        """Timed seconds at unloaded-host speed."""
        return sum(raw / self.host.factor_between(i) for _, raw, i in self.calls)

    @property
    def raw_seconds(self) -> float:
        return sum(raw for _, raw, _ in self.calls)

    @property
    def host_factor(self) -> float:
        return self.raw_seconds / self.seconds if self.calls else 1.0


def _child_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def warm_up(params):
    """Touch the batch-1 and batch-N forward and backward paths once, so
    first-call costs land in set-up rather than in the first round."""
    rng = np.random.default_rng(0)
    x = rng.random((64, network.IN_CHANNELS, engine.ROWS, engine.COLS)).astype(params.dtype)
    trace = network.forward(params, x)
    network.backward(params, trace, value_grad=np.ones(64))
    trace = network.forward(params, x[0])
    network.backward(params, trace, value_grad=np.ones(1), want_param_grads=False)


def new_params():
    """The agent explained and played by ``explain`` and ``play``: a fixed
    untrained network that stands in for a checkpoint. The workload seed
    varies the boards and games, not the agent."""
    return network.init(network.ArchDescriptor(conv_channels=C), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass
class TrainCtx:
    seed: int
    work_dir: Path


def setup_train(seed, work_dir):
    warm_up(new_params())
    return TrainCtx(seed=seed, work_dir=work_dir)


def _verify_training(result):
    for row in result.history:
        for key in ("mean_return", "policy_loss", "value_loss", "entropy", "illegal_rate"):
            check(math.isfinite(row[key]), f"non-finite {key} in training history")
    with open(result.log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    check(len(rows) == len(result.history), "training log and history disagree")
    for row in rows:
        check(all(math.isfinite(float(v)) for v in row.values()), "non-finite value in training log")
    params = network.load(result.checkpoint_path)
    check(params.arch.conv_channels == C, "checkpoint has the wrong width")
    check(all(np.isfinite(t).all() for t in params.tensors.values()), "non-finite checkpoint tensor")
    copy = Path(result.checkpoint_path).with_suffix(".roundtrip")
    network.save(params, copy)
    check(
        network.file_sha256(copy) == network.file_sha256(result.checkpoint_path),
        "checkpoint does not round-trip through network.load",
    )


def run_train(ctx, index, on_op=None):
    rnd = Round(on_op=on_op)
    out_dir = ctx.work_dir / f"train-{index}"
    config = training.PPOConfig(
        total_games=TRAIN_GAMES_PER_ROUND,
        seed=_child_seed(ctx.seed, index),
        conv_channels=C,
        checkpoint_every=0,
    )
    with CallCounter(training, "self_play_episode", len) as transitions:
        result = rnd.call(
            "train", lambda: training.train(config, out_dir), _verify_training
        )
    if result is not None:
        rnd.digest.update(network.file_sha256(result.checkpoint_path).encode())
        illegal = round(sum(row["illegal_rate"] for row in result.history) * config.update_every)
        rnd.shape = {
            "games": config.total_games,
            "transitions": transitions.total,
            "illegal_games": illegal,
        }
    shutil.rmtree(out_dir, ignore_errors=True)
    return rnd


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

@dataclass
class ExplainCtx:
    seed: int
    params: network.NetworkParams
    pairs: list  # per round: ((board, rng seed), (board, rng seed))


def _ongoing_position(pieces, rng):
    """A position reached by uniform random play with ``pieces`` pieces
    on the board and no completed line."""
    while True:
        board = engine.new_board()
        for _ in range(pieces):
            board = engine.apply_move(board, int(rng.choice(board.legal_moves())))
            if engine.outcome(board).is_terminal:
                break
        else:
            return board


def setup_explain(seed, work_dir):
    params = new_params()
    warm_up(params)
    pairs = []
    for index in range(EXPLAIN_ROUNDS_BUILT):
        pair = []
        for side, pieces in enumerate(T_PAIRS[index % len(T_PAIRS)]):
            rng = np.random.default_rng(_child_seed(seed, 1, index, side))
            pair.append((_ongoing_position(pieces, rng), _child_seed(seed, 2, index, side)))
        pairs.append(tuple(pair))
    return ExplainCtx(seed=seed, params=params, pairs=pairs)


def _verify_shapley(board):
    def verify(res):
        check(res.features == board.occupied_cells(), "Shapley features are not the occupied cells")
        check(len(res.values) == board.turn, "not one Shapley value per occupied cell")
        check(np.isfinite(res.values).all(), "non-finite Shapley value")

    return verify


def _verify_fw(k):
    def verify(res):
        check(np.all(np.diff(res.trace) <= 0.0), "FW best-so-far trace increases")
        check(np.isfinite(res.mask).all(), "non-finite FW mask")
        check(res.mask.min() >= 0.0 and res.mask.max() <= 1.0, "FW mask leaves [0, 1]")
        check(res.mask.sum() <= k + 1e-9, "FW mask sum exceeds k")

    return verify


def _verify_saliency(method):
    def verify(smap):
        check(isinstance(smap, attribution.SaliencyMap), f"{method} returned no SaliencyMap")
        check(smap.scores.shape == (network.IN_CHANNELS, engine.ROWS, engine.COLS), "bad map shape")

    return verify


def run_explain(ctx, index, on_op=None):
    rnd = Round(on_op=on_op)
    params = ctx.params
    t_values = []
    for board, seed in ctx.pairs[index % len(ctx.pairs)]:
        t = board.turn
        t_values.append(t)
        k = math.ceil(t / 2)

        def shapley():
            nu = charfn.nu_pol(params, board)
            return charfn.partial_shapley(
                nu, SHAPLEY_P, SHAPLEY_PERMS, np.random.default_rng(seed)
            )

        res = rnd.call("shapley", shapley, _verify_shapley(board))
        if res is not None:
            rnd.digest.update(np.asarray(res.values, dtype=np.float64).tobytes())
        for kind, rule in (("fw", "agnostic"), ("fw_ls", "line_search")):
            cfg = fwmask.FWConfig(k=k, iterations=FW_ITERATIONS, step_rule=rule)
            res = rnd.call(kind, lambda: fwmask.fw_optimize(params, board, cfg), _verify_fw(k))
            if res is not None:
                rnd.digest.update(res.mask.tobytes())
        for method in SALIENCY_METHODS:
            rng = np.random.default_rng(seed)
            smap = rnd.call(
                "saliency",
                lambda: attribution.saliency(method, params, board, rng),
                _verify_saliency(method),
            )
            if smap is not None:
                rnd.digest.update(smap.scores.tobytes())
    rnd.shape = {"boards": len(t_values), "t": t_values}
    return rnd


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------

@dataclass
class PlayCtx:
    seed: int
    params: network.NetworkParams


def setup_play(seed, work_dir):
    params = new_params()
    warm_up(params)
    return PlayCtx(seed=seed, params=params)


def _verify_match(res):
    res.verify()
    check(res.wins_a + res.wins_b + res.draws == res.n_games, "match tallies do not sum to n_games")
    check(res.illegal_a <= res.wins_b and res.illegal_b <= res.wins_a, "illegal tallies exceed wins")


def _verify_winstats(stats):
    total = stats.wins + stats.draws + stats.losses + stats.illegal
    check(total == stats.n_games, "WinStats counts do not sum to n_games")


def run_play(ctx, index, on_op=None):
    rnd = Round(on_op=on_op)
    params = ctx.params
    games = illegal = 0
    with CallCounter(engine, "apply_move", lambda _: 1) as plies:
        for j, (a, b) in enumerate(combinations(MASKERS, 2)):
            for swap, (first, second) in enumerate(((a, b), (b, a))):
                seed = _child_seed(ctx.seed, index, j, swap)
                res = rnd.call(
                    "match_game",
                    lambda: harness.play_match(
                        first, second, params, 1, fraction=MATCH_FRACTION, seed=seed, workers=1
                    ),
                    _verify_match,
                )
                if res is not None:
                    tally = (res.wins_a, res.wins_b, res.draws, res.illegal_a, res.illegal_b)
                    rnd.digest.update(repr(tally).encode())
                    games += res.n_games
                    illegal += res.illegal_a + res.illegal_b
        config = mcts.MCTSConfig(simulations=MCTS_SIMULATIONS)
        for j in range(MCTS_CALLS_PER_ROUND):
            seed = _child_seed(ctx.seed, index, 100 + j)
            stats = rnd.call(
                "mcts_call",
                lambda: mcts.benchmark(params, config, MCTS_GAMES_PER_CALL, seed=seed),
                _verify_winstats,
            )
            if stats is not None:
                tally = (stats.wins, stats.draws, stats.losses, stats.illegal)
                rnd.digest.update(repr(tally).encode())
                games += stats.n_games
                illegal += stats.illegal
    rnd.shape = {"games": games, "plies": plies.total, "illegal_games": illegal}
    return rnd


WORKLOADS = {
    "train": (setup_train, run_train),
    "explain": (setup_explain, run_explain),
    "play": (setup_play, run_play),
}
