"""Search opponent and oracle plumbing.

The bitboard playout core is cross-checked move by move against the
authoritative engine, the tactical checks pin minimum reliability on
one-move wins and forced blocks, and the external oracle client is
exercised against a real child process speaking the line protocol.
"""

import io
import os
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4xai import engine, mcts, network

DATA = Path(__file__).parent / "data"


def play(moves):
    board = engine.new_board()
    for col in moves:
        board = engine.apply_move(board, col)
    return board


def colour_bitboards(board):
    red = blue = 0
    for row in range(engine.ROWS):
        for col in range(engine.COLS):
            v = board.cells[row][col]
            if v == engine.EMPTY:
                continue
            bit = 1 << (col * 7 + row)
            if v == engine.RED:
                red |= bit
            else:
                blue |= bit
    return red, blue


def scanner_win(board, colour):
    for line in engine.all_lines():
        if all(board.cells[r][c] == colour for r, c in line):
            return True
    return False


# ---------------------------------------------------------------------------
# bitboard core
# ---------------------------------------------------------------------------

class TestBitboard:
    def test_conversion_matches_engine_on_random_playouts(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            board = engine.new_board()
            while not engine.outcome(board).is_terminal:
                red, blue = colour_bitboards(board)
                cur, occ, heights = mcts._bb_from_board(board)
                assert occ == red | blue
                assert cur == (red if board.to_move == engine.RED else blue)
                assert heights == [board.column_height(c) for c in range(engine.COLS)]
                assert mcts._bb_win(red) == scanner_win(board, engine.RED)
                assert mcts._bb_win(blue) == scanner_win(board, engine.BLUE)
                legal = board.legal_moves()
                board = engine.apply_move(board, legal[int(rng.integers(len(legal)))])
            red, blue = colour_bitboards(board)
            assert mcts._bb_win(red) == scanner_win(board, engine.RED)
            assert mcts._bb_win(blue) == scanner_win(board, engine.BLUE)

    def test_win_patterns_by_direction(self):
        def bits(cells):
            out = 0
            for col, row in cells:
                out |= 1 << (col * 7 + row)
            return out

        assert mcts._bb_win(bits([(2, 1), (2, 2), (2, 3), (2, 4)]))  # vertical
        assert mcts._bb_win(bits([(0, 0), (1, 0), (2, 0), (3, 0)]))  # horizontal
        assert mcts._bb_win(bits([(0, 0), (1, 1), (2, 2), (3, 3)]))  # diagonal
        assert mcts._bb_win(bits([(0, 3), (1, 2), (2, 1), (3, 0)]))  # anti-diagonal
        assert not mcts._bb_win(bits([(0, 0), (1, 0), (2, 0), (4, 0)]))

    def test_guard_bit_blocks_column_wraparound(self):
        # two stones atop column 0 plus two at the base of column 1 would be
        # bit-adjacent without the guard bit
        stones = (1 << 4) | (1 << 5) | (1 << 7) | (1 << 8)
        assert not mcts._bb_win(stones)


# ---------------------------------------------------------------------------
# search behaviour
# ---------------------------------------------------------------------------

class TestSearch:
    def test_finds_vertical_win_in_one(self):
        board = play([3, 0, 3, 1, 3, 6])  # red completes column 3
        cfg = mcts.MCTSConfig(simulations=200)
        hits = sum(
            mcts.mcts_search(board, cfg, np.random.default_rng(s)).column == 3
            for s in range(100)
        )
        assert hits >= 99

    def test_finds_horizontal_win_in_one(self):
        board = play([0, 6, 1, 6, 2, 5])  # red has the bottom row 0..2
        cfg = mcts.MCTSConfig(simulations=200)
        hits = sum(
            mcts.mcts_search(board, cfg, np.random.default_rng(s)).column == 3
            for s in range(100)
        )
        assert hits >= 99

    def test_blocks_immediate_threat(self):
        board = play([3, 0, 3, 1, 3])  # blue must answer the column-3 stack
        cfg = mcts.MCTSConfig(simulations=400)
        hits = sum(
            mcts.mcts_search(board, cfg, np.random.default_rng(s)).column == 3
            for s in range(100)
        )
        assert hits >= 95

    def test_single_simulation_returns_legal_move(self):
        cfg = mcts.MCTSConfig(simulations=1)
        for s in range(20):
            col = mcts.mcts_search(engine.new_board(), cfg, np.random.default_rng(s)).column
            assert col in range(engine.COLS)

    def test_root_child_visits_account_for_all_but_the_first(self):
        # the first simulation plays out from the unvisited root itself
        board = play([3, 3, 2])
        for sims in (2, 10, 50, 99):
            cfg = mcts.MCTSConfig(simulations=sims)
            result = mcts.mcts_search(board, cfg, np.random.default_rng(0))
            assert sum(result.visits.values()) == sims - 1
            assert result.simulations == sims
            assert set(result.values) == set(result.visits)

    def test_result_moves_are_legal_even_with_full_columns(self):
        board = play([0, 0, 0, 0, 0, 0])  # column 0 closed
        cfg = mcts.MCTSConfig(simulations=80)
        for s in range(10):
            col = mcts.mcts_search(board, cfg, np.random.default_rng(s)).column
            assert col in board.legal_moves()
            assert col != 0

    def test_terminal_position_rejected(self):
        board = play([3, 0, 3, 1, 3, 2, 3])
        assert engine.outcome(board).is_terminal
        with pytest.raises(mcts.MCTSError):
            mcts.mcts_search(board, mcts.MCTSConfig(simulations=10), np.random.default_rng(0))

    def test_config_requires_at_least_one_simulation(self):
        with pytest.raises(ValueError):
            mcts.MCTSConfig(simulations=0)

    def test_same_rng_same_result(self):
        board = play([3, 4])
        cfg = mcts.MCTSConfig(simulations=150)
        a = mcts.mcts_search(board, cfg, np.random.default_rng(42))
        b = mcts.mcts_search(board, cfg, np.random.default_rng(42))
        assert a.column == b.column
        assert a.visits == b.visits
        assert a.values == b.values


# ---------------------------------------------------------------------------
# rollouts and tree nodes
# ---------------------------------------------------------------------------

class FixedUniforms:
    """Stands in for the rollout's generator: ``random(k)`` hands out the
    next k of a fixed list of uniforms and records k."""

    def __init__(self, values):
        self.values = list(values)
        self.sizes = []

    def random(self, k):
        self.sizes.append(k)
        out, self.values = self.values[:k], self.values[k:]
        assert len(out) == k
        return np.array(out)


def replay_rollout(board, uniforms):
    """What a rollout from ``board`` should return, played on the engine:
    each uniform u picks legal_moves()[int(u * len(legal))]. Also returns
    whether some column filled before the game ended."""
    creator = engine.other(board.to_move)
    filled = False
    for u in uniforms:
        legal = board.legal_moves()
        col = legal[int(u * len(legal))]
        board = engine.apply_move(board, col)
        out = engine.outcome(board)
        if out.is_terminal:
            if out.kind == engine.DRAW:
                return 0.0, filled
            return (1.0 if engine.other(board.to_move) == creator else -1.0), filled
        filled = filled or board.column_height(col) == engine.ROWS
    raise AssertionError("uniforms ran out before the game ended")


def leaf(board):
    cur, occ, heights = mcts._bb_from_board(board)
    return mcts._Node(cur, occ, heights, board.turn, None)


class TestRolloutAndNodes:
    def test_rollout_equals_the_engine_replay_of_its_uniforms(self):
        # columns 0 and 6 each have one free cell, so they fill mid-rollout
        board = play([0] * 5 + [6] * 5)
        rng = np.random.default_rng(17)
        filled_mid_rollout = 0
        for _ in range(300):
            uniforms = rng.random(engine.ROWS * engine.COLS - board.turn).tolist()
            stub = FixedUniforms(uniforms)
            expected, filled = replay_rollout(board, uniforms)
            assert mcts._rollout(leaf(board), stub) == expected
            assert stub.sizes == [engine.ROWS * engine.COLS - board.turn]
            filled_mid_rollout += filled
        assert filled_mid_rollout > 100

    def test_rollout_uniforms_pick_from_the_columns_still_open(self):
        # u = 0.99 takes the last open column: column 6 fills with the
        # first move, so the next 0.99 lands on column 5
        board = play([6, 6, 6, 6, 6])
        uniforms = [0.99, 0.99] + [0.0] * 40
        expected, filled = replay_rollout(board, uniforms)
        assert filled
        assert mcts._rollout(leaf(board), FixedUniforms(uniforms)) == expected

    def test_new_node_lists_its_open_columns_ascending(self):
        node = leaf(play([0] * 6 + [4] * 6))
        assert node.untried == [1, 2, 3, 5, 6]
        assert node.children == {}

    def test_expansion_is_uniform_over_untried_columns(self):
        # two simulations: the root plays out, then expands one column
        board = play([0] * 6)  # column 0 closed
        cfg = mcts.MCTSConfig(simulations=2)
        counts = np.zeros(engine.COLS, dtype=int)
        for s in range(1200):
            (col,) = mcts.mcts_search(board, cfg, np.random.default_rng(s)).visits
            counts[col] += 1
        assert counts[0] == 0
        # 200 expected per open column, standard deviation 12.9
        assert np.all(np.abs(counts[1:] - 200) < 60), counts

    def test_equal_ucb_scores_select_the_lowest_column(self, monkeypatch):
        # drawn rollouts give every child the same statistics, so after
        # the root's six open columns are expanded the next selection is
        # a six-way tie, which goes to column 1 whatever the expansion order
        monkeypatch.setattr(mcts, "_rollout", lambda node, rng: 0.0)
        board = play([0] * 6)
        cfg = mcts.MCTSConfig(simulations=8)
        for s in range(20):
            visits = mcts.mcts_search(board, cfg, np.random.default_rng(s)).visits
            assert visits == {1: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}


# ---------------------------------------------------------------------------
# agent benchmarking
# ---------------------------------------------------------------------------

class TestBenchmark:
    def test_outcome_counts_are_disjoint_and_complete(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(5))
        stats = mcts.benchmark(params, mcts.MCTSConfig(simulations=30), n_games=6, seed=7)
        assert stats.wins + stats.draws + stats.losses + stats.illegal == 6
        assert stats.n_games == 6
        assert len(stats.game_seeds) == 6
        assert 0.0 <= stats.win_rate <= 1.0

    def test_same_seed_reproduces_every_field(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(5))
        cfg = mcts.MCTSConfig(simulations=30)
        a = mcts.benchmark(params, cfg, n_games=6, seed=7)
        b = mcts.benchmark(params, cfg, n_games=6, seed=7)
        assert a == b

    def test_zero_games_rejected(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(5))
        with pytest.raises(ValueError):
            mcts.benchmark(params, mcts.MCTSConfig(simulations=10), n_games=0)

    def test_untrained_net_rarely_beats_the_search(self):
        params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(5))
        stats = mcts.benchmark(params, mcts.MCTSConfig(simulations=150), n_games=10, seed=3)
        assert stats.wins <= 3


# ---------------------------------------------------------------------------
# reference-game agreement
# ---------------------------------------------------------------------------

def load_record():
    lines = (DATA / "optimal_game.txt").read_text().splitlines()
    body = " ".join(ln for ln in lines if not ln.lstrip().startswith("#"))
    return [int(c) for c in body.split()]


class TestCountOptimalMoves:
    def zero_params(self):
        arch = network.ArchDescriptor(conv_channels=8)
        params = network.init(arch, np.random.default_rng(0))
        for v in params.tensors.values():
            v[...] = 0.0
        return params

    def test_record_fixture_is_replayable(self):
        record = load_record()
        assert len(record) == 41
        board = engine.new_board()
        for col in record:
            assert not engine.outcome(board).is_terminal
            assert col in board.legal_moves()
            board = engine.apply_move(board, col)

    def test_uniform_policy_matches_exactly_the_zero_columns(self):
        # argmax of an all-equal policy is column 0, so the count equals
        # the number of recorded zeros
        record = load_record()
        count = mcts.count_optimal_moves(self.zero_params(), record)
        assert count == record.count(0)

    def test_wrong_length_rejected(self):
        record = load_record()
        with pytest.raises(mcts.IllegalRecord):
            mcts.count_optimal_moves(self.zero_params(), record[:40])
        with pytest.raises(mcts.IllegalRecord):
            mcts.count_optimal_moves(self.zero_params(), record + [3])

    def test_overfull_column_rejected(self):
        record = [0] * 7 + [1, 2] * 17
        assert len(record) == 41
        with pytest.raises(mcts.IllegalRecord, match="illegal move"):
            mcts.count_optimal_moves(self.zero_params(), record)

    def test_moves_after_game_end_rejected(self):
        record = [3, 0, 3, 1, 3, 2, 3] + [4, 5] * 17
        assert len(record) == 41
        with pytest.raises(mcts.IllegalRecord, match="game over"):
            mcts.count_optimal_moves(self.zero_params(), record)


# ---------------------------------------------------------------------------
# external oracle over the line protocol
# ---------------------------------------------------------------------------

ORACLE_SCRIPT = textwrap.dedent(
    """
    import sys, time

    mode = sys.argv[1]
    for line in sys.stdin:
        line = line.strip()
        if not line.startswith("POS "):
            continue
        rows = line[4:].split("/")
        legal = [i for i, ch in enumerate(rows[0]) if ch == "."]
        full = [i for i in range(7) if i not in legal]
        if mode == "die":
            sys.exit(0)
        if mode == "slow":
            time.sleep(2.0)
        reply = {
            "legal": "MOVE %d" % legal[0],
            "slow": "MOVE %d" % legal[0],
            "score": "MOVE %d SCORE 17" % legal[0],
            "garbage": "BANANA SPLIT",
            "shortscore": "MOVE %d SCORE" % legal[0],
            "badcol": "MOVE x",
            "badscore": "MOVE %d SCORE three" % legal[0],
            "illegal": "MOVE %d" % (full[0] if full else 9),
            "multi": "MOVE %d\\nMOVE %d" % (legal[0], legal[0]),
        }[mode]
        sys.stdout.write(reply + "\\n")
        sys.stdout.flush()
    """
).strip()


@pytest.fixture
def oracle_cmd(tmp_path):
    script = tmp_path / "toy_oracle.py"
    script.write_text(ORACLE_SCRIPT + "\n")

    def cmd(mode):
        return [sys.executable, str(script), mode]

    return cmd


class TestExternalOracle:
    def test_legal_reply_round_trip(self, oracle_cmd):
        with mcts.ExternalOracle(oracle_cmd("legal"), timeout=5.0) as oracle:
            board = play([3, 3, 4])
            col, score = oracle.best_move(board)
            assert col == 0  # lowest open column under the toy policy
            assert score is None
            # the same process serves repeated queries
            assert oracle.best_move(board) == (0, None)

    def test_score_field_is_parsed(self, oracle_cmd):
        with mcts.ExternalOracle(oracle_cmd("score"), timeout=5.0) as oracle:
            col, score = oracle.best_move(engine.new_board())
            assert col == 0
            assert score == 17

    @pytest.mark.parametrize("mode", ["garbage", "shortscore", "badcol", "badscore"])
    def test_malformed_reply_raises(self, oracle_cmd, mode):
        with mcts.ExternalOracle(oracle_cmd(mode), timeout=5.0) as oracle:
            with pytest.raises(mcts.OracleError):
                oracle.best_move(engine.new_board())

    def test_illegal_column_raises(self, oracle_cmd):
        board = play([0, 0, 0, 0, 0, 0])  # column 0 closed
        with mcts.ExternalOracle(oracle_cmd("illegal"), timeout=5.0) as oracle:
            with pytest.raises(mcts.OracleError, match="illegal column"):
                oracle.best_move(board)

    def test_timeout_raises(self, oracle_cmd):
        with mcts.ExternalOracle(oracle_cmd("slow"), timeout=0.3) as oracle:
            with pytest.raises(mcts.OracleError, match="timed out"):
                oracle.best_move(engine.new_board())

    def test_closed_stream_raises(self, oracle_cmd):
        with mcts.ExternalOracle(oracle_cmd("die"), timeout=5.0) as oracle:
            with pytest.raises(mcts.OracleError, match="closed"):
                oracle.best_move(engine.new_board())

    def test_extra_lines_raise(self, oracle_cmd):
        with mcts.ExternalOracle(oracle_cmd("multi"), timeout=5.0) as oracle:
            with pytest.raises(mcts.OracleError, match="more than one line"):
                oracle.best_move(engine.new_board())

    def test_empty_command_raises(self):
        with pytest.raises(mcts.OracleError, match="empty oracle command"):
            mcts.ExternalOracle([])

    def test_unstartable_command_raises(self):
        oracle = mcts.ExternalOracle(["/nonexistent/oracle-binary"], timeout=1.0)
        with pytest.raises(mcts.OracleError, match="cannot start"):
            oracle.best_move(engine.new_board())

    def test_close_is_idempotent_and_kills_the_child(self, oracle_cmd):
        oracle = mcts.ExternalOracle(oracle_cmd("legal"), timeout=5.0)
        oracle.best_move(engine.new_board())
        proc = oracle._proc
        oracle.close()
        assert oracle._proc is None
        assert proc.poll() is not None
        oracle.close()


class StubProcess:
    """Stands in for the solver process: stdin swallows the request and
    stdout is a pipe holding one reply, so no child process starts."""

    def __init__(self, reply: bytes):
        self.stdin = io.BytesIO()
        read_fd, write_fd = os.pipe()
        os.write(write_fd, reply)
        os.close(write_fd)
        self.stdout = os.fdopen(read_fd, "rb")

    def poll(self):
        return None


def test_a_score_past_the_int_digit_limit_is_an_oracle_error():
    oracle = mcts.ExternalOracle(["never-started"])
    oracle._proc = StubProcess(b"MOVE 0 SCORE " + b"9" * 5000 + b"\n")
    with pytest.raises(mcts.OracleError, match="score too long"):
        oracle.best_move(engine.new_board())


# integers in forms int() may or may not take: signs, padding, huge
# values, underscores, non-ASCII digits, floats, hex
ODD_INTS = st.one_of(
    st.integers().map(str),
    st.integers(-3, 9).map(lambda n: f"{n:+d}"),
    st.integers(0, 9).map(lambda n: f"000{n}"),
    st.integers(0, 9).map(lambda n: chr(0x0660 + n)),
    st.sampled_from(["", "1_0", "3.0", "0x3", "1e1", "nan", "9" * 5000]),
)
REPLY_LINES = st.one_of(
    st.text(max_size=40),
    st.builds("MOVE {}".format, ODD_INTS),
    st.builds("MOVE {} SCORE {}".format, ODD_INTS, ODD_INTS),
)


@settings(max_examples=300, deadline=None)
@given(line=REPLY_LINES, board=st.sampled_from([engine.new_board(), play([0] * 6)]))
def test_any_reply_line_gives_a_legal_column_or_oracle_error(line, board):
    oracle = mcts.ExternalOracle(["never-started"])
    oracle._proc = StubProcess(line.encode("utf-8", "surrogatepass") + b"\n")
    try:
        col, score = oracle.best_move(board)
    except mcts.OracleError:
        return
    finally:
        oracle._proc.stdout.close()
    assert col in board.legal_moves()
    assert score is None or isinstance(score, int)


@pytest.mark.parametrize(
    "line", ["MOVE \u0663", "MOVE +3", "MOVE 0003", "MOVE 3 SCORE 1_000", "MOVE 3 SCORE +5"]
)
def test_off_protocol_digits_raise(line):
    oracle = mcts.ExternalOracle(["never-started"])
    oracle._proc = StubProcess(line.encode("utf-8") + b"\n")
    try:
        with pytest.raises(mcts.OracleError, match="non-integer"):
            oracle.best_move(engine.new_board())
    finally:
        oracle._proc.stdout.close()
