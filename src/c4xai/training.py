"""PPO self-play training under the hidden-colour curriculum.

One network plays both colours, always seeing the board from the
mover's perspective (channel 0 = own pieces). Every turn draws a fresh
hiding fraction p_h uniformly from [0, p_h_max] and hides that share of
pieces, so agents learn to act under partial colour information:
p_h_max 0 is the full-information agent, 0.5 and 1.0 the
partial-information variants.

Rewards are +1 win, 0 draw, -1 loss, -2 illegal move. An illegal move
ends its game, and only that offending turn is kept for the update;
the game's earlier turns are discarded. Updates run every 10 finished
games: four full-batch Adam steps on the clipped-surrogate policy loss
(weight 1.0), squared-error value loss (0.5), and entropy bonus (0.01).

The games of one update are played in lockstep (``engine.play_lockstep``)
with one batched forward per ply. Each ply draws p_h and the hidden set
for every running game in game order, runs the forward, then samples the
actions in game order; so the random stream, and with it every trained
bit, depends on ``update_every``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import Error, engine, network


class TrainingError(Error):
    pass


class ConfigError(TrainingError):
    pass


class NonFiniteLoss(TrainingError):
    pass


_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool}  # by PPOConfig field type


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass
class PPOConfig:
    gamma: float = 0.75
    clip_eps: float = 0.2
    policy_weight: float = 1.0
    value_weight: float = 0.5
    entropy_weight: float = 0.01
    learning_rate: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    update_every: int = 10
    epochs_per_update: int = 4
    p_h_max: float = 0.5
    total_games: int = 2000
    seed: int = 0
    conv_channels: int = 64
    advantage_norm: bool = True
    checkpoint_every: int = 500

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not _finite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for name in ("gamma", "clip_eps", "learning_rate"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not 0.0 <= self.p_h_max <= 1.0:
            raise ConfigError("p_h_max must lie in [0, 1]")
        if self.update_every < 1 or self.epochs_per_update < 1 or self.total_games < 1:
            raise ConfigError("update_every, epochs_per_update, total_games must be >= 1")
        if self.conv_channels < 1:
            raise ConfigError("conv_channels must be >= 1")
        if self.checkpoint_every < 0 or self.seed < 0:
            raise ConfigError("checkpoint_every and seed must be >= 0")

    @classmethod
    def from_json(cls, path) -> "PPOConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid config JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = set(raw) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in raw.items():
            # bool is an int subclass: it is valid for bool fields only
            if isinstance(value, bool) != (kinds[name] == "bool") or not isinstance(
                value, _JSON_TYPES[kinds[name]]
            ):
                raise ConfigError(f"config key {name!r} must be {kinds[name]}, got {value!r}")
        return cls(**raw)


REWARDS = {"win": 1.0, "draw": 0.0, "loss": -1.0, "illegal": -2.0}


@dataclass
class Transition:
    state: np.ndarray  # 3x6x7 as the mover saw it, colours already masked
    action: int
    prob: float  # policy probability of the action at collection time
    value: float
    reward: float = 0.0
    done: bool = False
    ret: float = 0.0
    player: int = engine.RED


def self_play_episode(
    params: network.NetworkParams, config: PPOConfig, rng: np.random.Generator, games: int = 1
) -> list:
    """Self-play ``games`` games in lockstep; both sides sample from the policy.

    Every ply draws p_h and the hidden set for each running game in game
    order, runs one forward on the stacked encodings, then samples the
    actions in game order. Returns the stored transitions game by game,
    each game's in ply order with discounted returns filled in. An
    illegal move yields a single -2 transition for its game and drops
    the rest of that game.
    """
    played = [[] for _ in range(games)]

    def choose(indices, boards):
        reveals = []
        for board in boards:
            p_h = float(rng.uniform(0.0, config.p_h_max)) if config.p_h_max > 0 else 0.0
            reveals.append(engine.sample_hidden(board, p_h, rng))
        trace = network.forward_boards(params, boards, reveals)
        actions = []
        for i, board, x, policy, value in zip(indices, boards, trace.x, trace.policy, trace.value):
            action = network.sample_action(policy, rng)
            played[i].append(
                Transition(
                    state=x,
                    action=action,
                    prob=float(policy[action]),
                    value=float(value),
                    player=board.to_move,
                )
            )
            actions.append(action)
        return actions

    stored = []
    for transitions, (_, out, offender) in zip(played, engine.play_lockstep(choose, games)):
        if offender is not None:
            tr = transitions[-1]
            tr.reward = tr.ret = REWARDS["illegal"]
            tr.done = True
            stored.append(tr)
        else:
            _assign_terminal_rewards(transitions, out, config.gamma)
            stored.extend(transitions)
    return stored


def _assign_terminal_rewards(transitions, out: engine.Outcome, gamma: float):
    seen = set()
    for tr in reversed(transitions):
        if tr.player not in seen:
            tr.reward = REWARDS[engine.result_for(out, None, tr.player)]
            tr.done = True
            seen.add(tr.player)
    fill_returns(transitions, gamma)


def fill_returns(transitions, gamma: float):
    """Discounted returns along each player's own turn sequence."""
    tail = {}
    for tr in reversed(transitions):
        prev = tail.get(tr.player)
        tr.ret = tr.reward + (gamma * prev if prev is not None and not tr.done else 0.0)
        tail[tr.player] = tr.ret
    return transitions


def init_adam_state(params: network.NetworkParams) -> dict:
    zeros = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    return {"m": zeros, "v": {k: np.zeros_like(v) for k, v in params.tensors.items()}, "t": 0}


def adam_step(
    params: network.NetworkParams, grads: dict, state: dict, config: PPOConfig
) -> network.NetworkParams:
    state["t"] += 1
    t = state["t"]
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_eps
    new_tensors = {}
    for k, w in params.tensors.items():
        g = grads[k].astype(w.dtype)
        state["m"][k] = b1 * state["m"][k] + (1 - b1) * g
        state["v"][k] = b2 * state["v"][k] + (1 - b2) * g * g
        m_hat = state["m"][k] / (1 - b1**t)
        v_hat = state["v"][k] / (1 - b2**t)
        new_tensors[k] = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return network.NetworkParams(
        arch=params.arch, tensors=new_tensors, dtype=params.dtype, meta=dict(params.meta)
    )


def ppo_update(
    params: network.NetworkParams,
    batch,
    config: PPOConfig,
    opt_state: Optional[dict] = None,
):
    """Clipped-surrogate PPO step: ``epochs_per_update`` full-batch Adam
    steps on the combined loss. Returns (params, opt_state, stats), with
    stats from the first epoch (the batch as collected)."""
    if not batch:
        raise TrainingError("empty batch")
    if opt_state is None:
        opt_state = init_adam_state(params)
    n = len(batch)
    states = np.stack([tr.state for tr in batch]).astype(params.dtype)
    actions = np.array([tr.action for tr in batch])
    old_probs = np.clip(np.array([tr.prob for tr in batch], dtype=np.float64), 1e-12, None)
    returns = np.array([tr.ret for tr in batch], dtype=np.float64)
    values_stored = np.array([tr.value for tr in batch], dtype=np.float64)
    adv = returns - values_stored
    if config.advantage_norm:
        # scale only: centering could flip advantage signs and with them
        # the direction each sample pushes the clipped surrogate
        adv = adv / (adv.std() + 1e-8)

    idx = np.arange(n)
    stats = {}
    for epoch in range(config.epochs_per_update):
        trace = network.forward(params, states)
        p = trace.policy.astype(np.float64)
        pa = np.clip(p[idx, actions], 1e-12, None)
        ratio = pa / old_probs
        low, high = 1.0 - config.clip_eps, 1.0 + config.clip_eps
        surrogate = np.minimum(ratio * adv, np.clip(ratio, low, high) * adv)
        entropy = -np.sum(p * np.log(np.clip(p, 1e-12, None)), axis=1)
        v = trace.value.astype(np.float64)
        policy_loss = -float(surrogate.mean())
        value_loss = float(((v - returns) ** 2).mean())
        entropy_mean = float(entropy.mean())
        total = (
            config.policy_weight * policy_loss
            + config.value_weight * value_loss
            - config.entropy_weight * entropy_mean
        )
        if not np.isfinite(total):
            raise NonFiniteLoss(
                f"loss diverged at epoch {epoch}: policy={policy_loss} "
                f"value={value_loss} entropy={entropy_mean}"
            )
        if epoch == 0:
            stats = {
                "policy_loss": policy_loss,
                "value_loss": value_loss,
                "entropy": entropy_mean,
                "total_loss": total,
                "mean_ratio": float(ratio.mean()),
            }
        # d(min)/d(ratio): the unclipped branch carries gradient unless
        # the ratio sits strictly in the clipped-and-smaller region
        active = np.where(adv >= 0, ratio <= high, ratio >= low)
        dsurr_dratio = np.where(active, adv, 0.0)
        g_pol = np.zeros((n, network.N_ACTIONS))
        g_pol[idx, actions] = -config.policy_weight * dsurr_dratio / old_probs / n
        g_pol += config.entropy_weight * (np.log(np.clip(p, 1e-12, None)) + 1.0) / n
        g_val = config.value_weight * 2.0 * (v - returns) / n
        grads, _ = network.backward(
            params, trace, policy_grad=g_pol, value_grad=g_val, want_input_grad=False
        )
        params = adam_step(params, grads, opt_state, config)
    return params, opt_state, stats


@dataclass
class TrainResult:
    checkpoint_path: str
    log_path: str
    config: PPOConfig
    history: list = field(default_factory=list)


LOG_COLUMNS = ("games", "mean_return", "policy_loss", "value_loss", "entropy", "illegal_rate")


def train(config: PPOConfig, out_dir, progress: Optional[callable] = None) -> TrainResult:
    """Full training loop: self-play, periodic updates, CSV log, and
    checkpoints every ``checkpoint_every`` games plus a final one.

    Games are played in chunks of ``update_every`` (fewer for the last
    chunk) and each full chunk ends in one update. ``progress(game, row)``
    fires once per game in order, and a checkpoint at game g holds the
    params of the last update at or before g.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    arch = network.ArchDescriptor(conv_channels=config.conv_channels)
    params = network.init(arch, rng, dtype=np.float32)
    opt_state = init_adam_state(params)

    log_path = out / "training_log.csv"
    history = []

    def finish_game(game):
        if config.checkpoint_every and game % config.checkpoint_every == 0:
            _save_checkpoint(params, config, game, out / f"checkpoint_g{game}.ckpt")
        if progress is not None:
            progress(game, history[-1] if history else None)

    with open(log_path, "w", newline="") as log_fh:
        writer = csv.writer(log_fh)
        writer.writerow(LOG_COLUMNS)
        played = 0
        while played < config.total_games:
            chunk = min(config.update_every, config.total_games - played)
            batch = self_play_episode(params, config, rng, games=chunk)
            for game in range(played + 1, played + chunk):
                finish_game(game)  # before the chunk's update, as played
            played += chunk
            if played % config.update_every == 0:
                params, opt_state, stats = ppo_update(params, batch, config, opt_state)
                illegal = sum(tr.reward == REWARDS["illegal"] for tr in batch)
                row = {
                    "games": played,
                    "mean_return": float(np.mean([tr.ret for tr in batch])),
                    "policy_loss": stats["policy_loss"],
                    "value_loss": stats["value_loss"],
                    "entropy": stats["entropy"],
                    "illegal_rate": illegal / chunk,  # one -2 row per illegal game
                }
                history.append(row)
                writer.writerow([row[c] for c in LOG_COLUMNS])
            finish_game(played)
    ckpt = _save_checkpoint(params, config, config.total_games, out / "checkpoint_final.ckpt")
    return TrainResult(
        checkpoint_path=ckpt, log_path=str(log_path), config=config, history=history
    )


def _save_checkpoint(params, config, games, path) -> str:
    params.meta.update(
        {
            "games": int(games),
            "p_h_max": config.p_h_max,
            "seed": config.seed,
            "conv_channels": config.conv_channels,
            "optimizer": "adam, state not persisted across restarts",
        }
    )
    return network.save(params, path)
