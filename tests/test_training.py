"""Self-play collection, PPO losses, and the training loop.

The surrogate-loss pins use tiny hand-built batches where the clipped
value can be computed on paper; the loop tests run a miniature
configuration end to end and check the artifacts it leaves behind.
"""

import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4xai import engine, network, training
from c4xai.training import PPOConfig, Transition


def small_config(**kw):
    base = dict(conv_channels=8, total_games=10, seed=0)
    base.update(kw)
    return PPOConfig(**base)


def rigged_net(bias_col, strength=50.0):
    """Zero network whose policy head bias pins the argmax to one column."""
    params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(0))
    for v in params.tensors.values():
        v[...] = 0.0
    params.tensors["policy_b"][bias_col] = strength
    return params


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestPPOConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = small_config(p_h_max=0.25, learning_rate=3e-4)
        path = tmp_path / "cfg.json"
        with open(path, "w") as fh:
            json.dump(asdict(cfg), fh)
        assert PPOConfig.from_json(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"gamma": 0.75, "momentum": 0.9}\n')
        with pytest.raises(training.ConfigError, match="momentum"):
            PPOConfig.from_json(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{gamma: nope")
        with pytest.raises(training.ConfigError):
            PPOConfig.from_json(path)

    @pytest.mark.parametrize(
        "text",
        [
            "null",
            '"str"',
            "[1, 2]",
            '{"seed": "x"}',
            '{"update_every": 1.5}',
            '{"total_games": true}',
            '{"gamma": "0.5"}',
            '{"gamma": false}',
            '{"advantage_norm": 1}',
        ],
    )
    def test_mistyped_json_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(training.ConfigError):
            PPOConfig.from_json(path)

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"gamma": 1, "advantage_norm": false}')
        cfg = PPOConfig.from_json(path)
        assert cfg.gamma == 1 and cfg.advantage_norm is False

    @pytest.mark.parametrize(
        "kw",
        [
            {"gamma": -0.1},
            {"clip_eps": -1.0},
            {"learning_rate": -1e-4},
            {"p_h_max": 1.5},
            {"p_h_max": -0.2},
            {"update_every": 0},
            {"epochs_per_update": 0},
            {"total_games": 0},
            {"gamma": math.inf},
            {"learning_rate": math.nan},
            {"adam_eps": -math.inf},
            {"entropy_weight": 10**400},
            {"checkpoint_every": -1},
            {"conv_channels": 0},
            {"seed": -1},
        ],
    )
    def test_out_of_range_values_rejected(self, kw):
        with pytest.raises(training.ConfigError):
            small_config(**kw)

    @pytest.mark.parametrize("text", ['{"gamma": Infinity}', '{"learning_rate": NaN}'])
    def test_non_finite_json_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(training.ConfigError, match="finite"):
            PPOConfig.from_json(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_from_json_returns_a_config_or_raises_config_error(self, tmp_path_factory, data):
        scalars = (
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=5)
        )
        values = st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=5), inner, max_size=3),
            max_leaves=8,
        )
        typed = {
            "float": st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats() | st.integers(),
            "int": st.integers(),
            "bool": st.booleans(),
        }
        # a few known keys over the defaults, so that many drafts pass the type checks
        known = st.lists(
            st.sampled_from(fields(PPOConfig)).flatmap(
                lambda f: st.tuples(st.just(f.name), typed[f.type] | values)
            ),
            min_size=1,
            max_size=3,
        ).map(dict)
        keys = st.sampled_from([f.name for f in fields(PPOConfig)]) | st.text(max_size=8)
        raw = data.draw(known | st.dictionaries(keys, values, max_size=6) | values)
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps(raw))
        try:
            cfg = PPOConfig.from_json(path)
        except training.ConfigError:
            return
        assert isinstance(cfg, PPOConfig)
        for f in fields(cfg):
            if f.type == "float":
                assert math.isfinite(getattr(cfg, f.name))


# ---------------------------------------------------------------------------
# returns and terminal rewards
# ---------------------------------------------------------------------------

def blank_state():
    return engine.encode(engine.new_board())


def test_discounted_returns_along_one_players_turns():
    # rewards 0, 0, 1 at gamma 0.75 give returns 0.5625, 0.75, 1.0
    trs = [
        Transition(state=blank_state(), action=0, prob=0.5, value=0.0, player=engine.RED)
        for _ in range(3)
    ]
    trs[2].reward = 1.0
    trs[2].done = True
    training.fill_returns(trs, gamma=0.75)
    assert [tr.ret for tr in trs] == pytest.approx([0.5625, 0.75, 1.0])


def test_returns_do_not_leak_between_players():
    trs = []
    for player in (engine.RED, engine.BLUE, engine.RED, engine.BLUE):
        trs.append(
            Transition(state=blank_state(), action=0, prob=0.5, value=0.0, player=player)
        )
    trs[2].reward = 1.0
    trs[2].done = True
    trs[3].reward = -1.0
    trs[3].done = True
    training.fill_returns(trs, gamma=0.75)
    assert [tr.ret for tr in trs] == pytest.approx([0.75, -0.75, 1.0, -1.0])


def test_done_cuts_the_discount_chain():
    trs = [
        Transition(state=blank_state(), action=0, prob=0.5, value=0.0, player=engine.RED)
        for _ in range(2)
    ]
    trs[0].reward = -2.0
    trs[0].done = True
    trs[1].reward = 1.0
    trs[1].done = True
    training.fill_returns(trs, gamma=0.75)
    assert trs[0].ret == -2.0  # no bootstrap from the later turn


def test_terminal_rewards_reach_only_each_players_last_turn():
    board = engine.new_board()
    trs = []
    for col in [3, 0, 3, 1, 3, 2, 3]:  # red wins on the column-3 stack
        trs.append(
            Transition(state=blank_state(), action=col, prob=0.5, value=0.0, player=board.to_move)
        )
        board = engine.apply_move(board, col)
    out = engine.outcome(board)
    assert out.kind == engine.RED_WINS
    training._assign_terminal_rewards(trs, out, gamma=0.75)
    rewards = [tr.reward for tr in trs]
    dones = [tr.done for tr in trs]
    assert rewards == [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0]
    assert dones == [False, False, False, False, False, True, True]
    # each side's returns discount back through its own turns only
    assert trs[0].ret == pytest.approx(0.75**3)
    assert trs[1].ret == pytest.approx(-(0.75**2))


# ---------------------------------------------------------------------------
# self-play episodes
# ---------------------------------------------------------------------------

class TestSelfPlay:
    def test_full_information_states_have_no_hidden_pieces(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(2))
        cfg = small_config(p_h_max=0.0)
        rng = np.random.default_rng(9)
        for _ in range(5):
            for tr in training.self_play_episode(params, cfg, rng):
                occupied = tr.state[2] == 0.0
                colour_sum = tr.state[0] + tr.state[1]
                assert np.all(colour_sum[occupied] == 1.0)
                assert np.all(colour_sum[~occupied] == 0.0)

    def test_maximal_hiding_produces_blank_occupied_cells(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(2))
        cfg = small_config(p_h_max=1.0)
        rng = np.random.default_rng(9)
        hidden_seen = 0
        for _ in range(20):
            for tr in training.self_play_episode(params, cfg, rng):
                occupied = tr.state[2] == 0.0
                colour_sum = tr.state[0] + tr.state[1]
                hidden_seen += int(np.sum((colour_sum == 0.0) & occupied))
        assert hidden_seen > 0

    def test_states_are_stored_from_the_movers_perspective(self):
        # with no hiding, replaying the actions must reproduce every stored
        # state exactly, encoded for whoever was about to move
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(4))
        cfg = small_config(p_h_max=0.0)
        rng = np.random.default_rng(0)
        finished = 0
        for _ in range(6):
            trs = training.self_play_episode(params, cfg, rng)
            if len(trs) == 1 and trs[0].reward == -2.0:
                continue
            board = engine.new_board()
            for tr in trs:
                assert tr.player == board.to_move
                expected = engine.encode(board)
                np.testing.assert_array_equal(tr.state, expected)
                board = engine.apply_move(board, tr.action)
            assert engine.outcome(board).is_terminal
            finished += 1
        assert finished >= 3

    def test_illegal_move_keeps_only_the_offending_turn(self):
        params = rigged_net(bias_col=0)
        cfg = small_config(p_h_max=0.0)
        trs = training.self_play_episode(params, cfg, np.random.default_rng(0))
        # column 0 fills after six plies with no win; ply seven is illegal
        assert len(trs) == 1
        tr = trs[0]
        assert tr.action == 0
        assert tr.reward == -2.0
        assert tr.ret == -2.0
        assert tr.done is True
        assert tr.state[2, :, 0].sum() == 0.0  # the column really was full

    def test_probabilities_and_values_are_in_range(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(4))
        cfg = small_config(p_h_max=0.5)
        rng = np.random.default_rng(1)
        trs = training.self_play_episode(params, cfg, rng)
        assert len(trs) >= 7
        for tr in trs:
            assert 0.0 < tr.prob <= 1.0
            assert -1.0 <= tr.value <= 1.0


class TestLockstepSelfPlay:
    def play(self, monkeypatch, games, seed, p_h_max=0.0):
        """Self-play ``games`` games; returns (flat rows, per-game results,
        per-game rows, number of forwards)."""
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(12))
        results, forwards = [], []
        real_lockstep, real_forward = engine.play_lockstep, network.forward

        def lockstep(choose, n):
            results.extend(real_lockstep(choose, n))
            return results

        def forward(p, x):
            forwards.append(len(x))
            return real_forward(p, x)

        monkeypatch.setattr(engine, "play_lockstep", lockstep)
        monkeypatch.setattr(network, "forward", forward)
        cfg = small_config(p_h_max=p_h_max)
        rows = training.self_play_episode(params, cfg, np.random.default_rng(seed), games=games)
        per_game, start = [], 0
        for final, _, offender in results:
            n = 1 if offender is not None else final.turn
            per_game.append(rows[start : start + n])
            start += n
        assert start == len(rows)
        return rows, results, per_game, forwards

    def test_one_forward_per_ply_of_the_longest_game(self, monkeypatch):
        _, results, _, forwards = self.play(monkeypatch, 4, seed=3, p_h_max=0.5)
        plies = [final.turn + (offender is not None) for final, _, offender in results]
        assert len(set(plies)) > 1
        assert len(forwards) == max(plies)
        assert forwards == [sum(p > ply for p in plies) for ply in range(max(plies))]

    def test_each_games_rows_replay_legally(self, monkeypatch):
        _, results, per_game, _ = self.play(monkeypatch, 8, seed=5)
        legal_games = 0
        for (final, out, offender), rows in zip(results, per_game):
            if offender is not None:
                continue
            board = engine.new_board()
            for tr in rows:
                assert tr.player == board.to_move
                expected = engine.encode(board)
                np.testing.assert_array_equal(tr.state, expected)
                board = engine.apply_move(board, tr.action)
            assert board == final and engine.outcome(board) == out and out.is_terminal
            assert [tr.done for tr in rows].count(True) == 2
            legal_games += 1
        assert legal_games >= 3

    def test_each_illegal_game_keeps_one_minus_two_row(self, monkeypatch):
        rows, results, per_game, _ = self.play(monkeypatch, 8, seed=5)
        illegal = [i for i, (_, _, offender) in enumerate(results) if offender is not None]
        assert illegal
        assert sum(tr.reward == training.REWARDS["illegal"] for tr in rows) == len(illegal)
        for i in illegal:
            (tr,) = per_game[i]
            final, _, offender = results[i]
            assert tr.reward == tr.ret == -2.0 and tr.done
            assert tr.player == offender == final.to_move
            assert tr.action not in final.legal_moves()


def test_mid_chunk_checkpoints_hold_the_last_update(tmp_path):
    def tensors(run, game):
        return network.load(tmp_path / run / f"checkpoint_g{game}.ckpt").tensors

    def same(a, b):
        return all(np.array_equal(a[k], b[k]) for k in a)

    seen = []
    cfg = small_config(total_games=6, update_every=5, checkpoint_every=3, seed=4)
    training.train(cfg, tmp_path / "every3", progress=lambda g, row: seen.append((g, row)))
    assert [(g, row and row["games"]) for g, row in seen] == [
        (1, None), (2, None), (3, None), (4, None), (5, 5), (6, 5)
    ]
    every1 = small_config(total_games=6, update_every=5, checkpoint_every=1, seed=4)
    training.train(every1, tmp_path / "every1")
    # games 1-4 are played before the first update, at game 5
    assert same(tensors("every3", 3), tensors("every1", 3))
    assert same(tensors("every1", 3), tensors("every1", 4))
    assert not same(tensors("every1", 4), tensors("every1", 5))
    assert same(tensors("every3", 6), tensors("every1", 5))
    assert same(tensors("every1", 5), tensors("every1", 6))


# ---------------------------------------------------------------------------
# PPO update mechanics
# ---------------------------------------------------------------------------

def batch_of(n, params, ret=0.0, prob=None):
    """Batch built from real forward passes so stored probs match the net."""
    trace = network.forward_boards(params, [engine.new_board()])
    x, policy, value = trace.x[0], trace.policy[0], trace.value[0]
    out = []
    for i in range(n):
        action = i % network.N_ACTIONS
        out.append(
            Transition(
                state=x,
                action=action,
                prob=float(policy[action]) if prob is None else prob,
                value=float(value),
                ret=ret,
            )
        )
    return out


class TestPPOUpdate:
    def test_empty_batch_rejected(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(0))
        with pytest.raises(training.TrainingError):
            training.ppo_update(params, [], small_config())

    def test_zero_advantage_and_zero_weights_leave_params_untouched(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(0))
        cfg = small_config(value_weight=0.0, entropy_weight=0.0, advantage_norm=False)
        trace = network.forward_boards(params, [engine.new_board()])
        x, policy, value = trace.x[0], trace.policy[0], trace.value[0]
        batch = [
            Transition(state=x, action=a, prob=float(policy[a]), value=float(value),
                       ret=float(value))
            for a in range(3)
        ]
        new_params, _, stats = training.ppo_update(params, batch, cfg)
        assert stats["policy_loss"] == 0.0
        for k in params.tensors:
            np.testing.assert_array_equal(new_params.tensors[k], params.tensors[k])

    def test_fresh_batch_has_unit_ratio(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(3))
        cfg = small_config(advantage_norm=False, epochs_per_update=1)
        batch = batch_of(4, params, ret=0.5)
        _, _, stats = training.ppo_update(params, batch, cfg)
        assert stats["mean_ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_large_ratio_is_clipped_at_the_upper_edge(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(3))
        cfg = small_config(advantage_norm=False, clip_eps=0.2, epochs_per_update=1)
        trace = network.forward_boards(params, [engine.new_board()])
        x, policy, value = trace.x[0], trace.policy[0], trace.value[0]
        action = 2
        # stored prob ten times smaller than the live one: ratio 10, and
        # with advantage +1 the surrogate clips to 1.2
        batch = [
            Transition(state=x, action=action, prob=float(policy[action]) / 10.0,
                       value=float(value), ret=float(value) + 1.0)
        ]
        _, _, stats = training.ppo_update(params, batch, cfg)
        assert stats["mean_ratio"] == pytest.approx(10.0, rel=1e-5)
        assert stats["policy_loss"] == pytest.approx(-1.2, rel=1e-5)

    def test_small_ratio_with_negative_advantage_clips_at_the_lower_edge(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(3))
        cfg = small_config(advantage_norm=False, clip_eps=0.2, epochs_per_update=1)
        trace = network.forward_boards(params, [engine.new_board()])
        x, policy, value = trace.x[0], trace.policy[0], trace.value[0]
        action = 2
        # ratio 0.1 with advantage -1: min(-0.1, -0.8) keeps the clipped branch
        batch = [
            Transition(state=x, action=action, prob=float(policy[action]) * 10.0,
                       value=float(value), ret=float(value) - 1.0)
        ]
        _, _, stats = training.ppo_update(params, batch, cfg)
        assert stats["policy_loss"] == pytest.approx(0.8, rel=1e-5)

    def test_zero_learning_rate_changes_nothing(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(5))
        cfg = small_config(learning_rate=0.0)
        batch = batch_of(5, params, ret=1.0)
        new_params, _, _ = training.ppo_update(params, batch, cfg)
        for k in params.tensors:
            np.testing.assert_array_equal(new_params.tensors[k], params.tensors[k])

    def test_value_loss_matches_the_squared_error(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(5))
        cfg = small_config(advantage_norm=False, epochs_per_update=1)
        batch = batch_of(3, params, ret=0.25)
        x = batch[0].state
        v = network.forward(params, x).value[0]
        _, _, stats = training.ppo_update(params, batch, cfg)
        assert stats["value_loss"] == pytest.approx((float(v) - 0.25) ** 2, rel=1e-6)

    def test_non_finite_loss_raises(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(5))
        cfg = small_config(advantage_norm=False, policy_weight=0.0)
        batch = batch_of(2, params, ret=1e300)
        with np.errstate(over="ignore"):
            with pytest.raises(training.NonFiniteLoss):
                training.ppo_update(params, batch, cfg)

    def test_update_moves_parameters_with_default_weights(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(6))
        cfg = small_config()
        batch = batch_of(6, params, ret=1.0)
        new_params, opt_state, _ = training.ppo_update(params, batch, cfg)
        moved = sum(
            not np.array_equal(new_params.tensors[k], params.tensors[k]) for k in params.tensors
        )
        assert moved > 0
        assert opt_state["t"] == cfg.epochs_per_update


class TestAdam:
    def test_first_step_size_is_learning_rate_times_sign(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(7))
        cfg = small_config(learning_rate=1e-3)
        grads = {k: np.full_like(v, 2.5) for k, v in params.tensors.items()}
        grads["conv1_w"] = np.full_like(params.tensors["conv1_w"], -0.004)
        state = training.init_adam_state(params)
        new_params = training.adam_step(params, grads, state, cfg)
        up = params.tensors["fc1_w"] - new_params.tensors["fc1_w"]
        down = params.tensors["conv1_w"] - new_params.tensors["conv1_w"]
        # bias-corrected first step is lr * sign(g) up to the eps smoothing
        assert np.allclose(up, 1e-3, rtol=1e-4)
        assert np.allclose(down, -1e-3, rtol=1e-4)
        assert state["t"] == 1


# ---------------------------------------------------------------------------
# training loop artifacts
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestTrainLoop:
    def test_loop_writes_log_checkpoints_and_history(self, tmp_path):
        cfg = small_config(
            total_games=12, update_every=5, checkpoint_every=10, p_h_max=0.5, seed=1
        )
        calls = []
        result = training.train(cfg, tmp_path, progress=lambda g, row: calls.append(g))
        assert calls == list(range(1, 13))

        log_lines = (tmp_path / "training_log.csv").read_text().strip().splitlines()
        assert log_lines[0] == ",".join(training.LOG_COLUMNS)
        assert len(log_lines) == 1 + len(result.history)
        assert [row["games"] for row in result.history] == [5, 10]

        assert (tmp_path / "checkpoint_g10.ckpt").exists()
        final = network.load(result.checkpoint_path)
        assert final.meta["games"] == 12
        assert final.meta["p_h_max"] == 0.5
        assert final.arch.conv_channels == 8

    def test_same_seed_reproduces_the_checkpoint_bit_for_bit(self, tmp_path):
        cfg = small_config(total_games=8, update_every=4, checkpoint_every=0, seed=3)
        a = training.train(cfg, tmp_path / "a")
        b = training.train(cfg, tmp_path / "b")
        assert network.file_sha256(a.checkpoint_path) == network.file_sha256(b.checkpoint_path)
        assert a.history == b.history

    def test_illegal_rate_column_stays_in_unit_range(self, tmp_path):
        cfg = small_config(total_games=10, update_every=5, checkpoint_every=0, seed=2)
        result = training.train(cfg, tmp_path)
        for row in result.history:
            assert 0.0 <= row["illegal_rate"] <= 1.0
            assert np.isfinite(row["policy_loss"])
            assert np.isfinite(row["value_loss"])
