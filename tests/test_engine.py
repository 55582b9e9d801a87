"""Board engine checks against an independent window scanner."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c4xai import engine
from oracles import play_one_game, scan, scanner_lines


def test_line_count_is_69():
    lines = scanner_lines()
    assert len(lines) == 69
    assert len(set(map(frozenset, lines))) == 69


def random_playout(rng, record=False):
    board = engine.new_board()
    boards = [board]
    while not engine.outcome(board).is_terminal:
        legal = board.legal_moves()
        board = engine.apply_move(board, int(legal[rng.integers(len(legal))]))
        boards.append(board)
    return boards if record else board


@pytest.mark.parametrize("seed", range(4))
def test_outcome_matches_scanner_on_playouts(seed):
    rng = np.random.default_rng(seed)
    for _ in range(500):
        board = engine.new_board()
        while True:
            out = engine.outcome(board)
            byscan = scan(board.cells)
            if byscan:
                assert len(byscan) == 1
                player, cells = next(iter(byscan.items()))
                assert out.kind == (
                    engine.RED_WINS if player == engine.RED else engine.BLUE_WINS
                )
                assert out.winning_cells == frozenset(cells)
                break
            if board.turn == 42:
                assert out.kind == engine.DRAW
                break
            assert out.kind == engine.ONGOING
            legal = board.legal_moves()
            board = engine.apply_move(board, int(legal[rng.integers(len(legal))]))


def test_gravity_and_balance_invariants():
    rng = np.random.default_rng(99)
    for _ in range(200):
        for board in random_playout(rng, record=True):
            reds = sum(v == engine.RED for row in board.cells for v in row)
            blues = sum(v == engine.BLUE for row in board.cells for v in row)
            assert reds - blues in (0, 1)
            assert (reds - blues == 1) == (board.to_move == engine.BLUE)
            for col in range(engine.COLS):
                h = board.column_height(col)
                assert all(board.cells[r][col] != engine.EMPTY for r in range(h))
                assert all(board.cells[r][col] == engine.EMPTY for r in range(h, engine.ROWS))


def test_apply_move_errors():
    board = engine.new_board()
    with pytest.raises(engine.InvalidColumn):
        engine.apply_move(board, 7)
    with pytest.raises(engine.InvalidColumn):
        engine.apply_move(board, -1)
    with pytest.raises(engine.InvalidColumn):
        engine.apply_move(board, 3.0)
    with pytest.raises(engine.InvalidColumn):
        engine.apply_move(board, True)
    full = engine.replay([0, 0, 0, 0, 0, 0])
    with pytest.raises(engine.ColumnFull):
        engine.apply_move(full, 0)


def test_apply_move_is_pure():
    a = engine.new_board()
    b = engine.apply_move(a, 3)
    assert a.cells[0][3] == engine.EMPTY
    assert b.cells[0][3] == engine.RED
    assert b.to_move == engine.BLUE
    assert b.history[-1] == (3, engine.RED)


def test_vertical_win():
    board = engine.replay([3, 0, 3, 1, 3, 2, 3])
    out = engine.outcome(board)
    assert out.kind == engine.RED_WINS
    assert out.winning_cells == frozenset({(0, 3), (1, 3), (2, 3), (3, 3)})


def test_double_threat_union():
    # red completes a horizontal and a diagonal with one stone: the
    # reported cells are the union of both lines (7 cells);
    # diagonal (0,0)..(3,3) and horizontal row 3 share the cell (3,3)
    cells = [[engine.EMPTY] * 7 for _ in range(6)]
    for i in range(4):
        cells[i][i] = engine.RED  # diagonal
    for c in range(4):
        cells[3][c] = engine.RED  # horizontal sharing (3, 3)
    byscan = scan(cells)
    want = {(i, i) for i in range(4)} | {(3, c) for c in range(4)}
    assert byscan[engine.RED] == want
    board = engine.BoardState(cells=tuple(tuple(r) for r in cells), to_move=engine.BLUE)
    out = engine.outcome(board)
    assert out.kind == engine.RED_WINS
    assert out.winning_cells == frozenset(want)
    assert len(out.winning_cells) == 7


def test_overline_reports_whole_run():
    cells = [[engine.EMPTY] * 7 for _ in range(6)]
    for c in range(5):
        cells[0][c] = engine.RED
    board = engine.BoardState(cells=tuple(tuple(r) for r in cells), to_move=engine.BLUE)
    assert engine.outcome(board).winning_cells == frozenset((0, c) for c in range(5))


@pytest.mark.parametrize("to_move", [engine.RED, engine.BLUE])
def test_both_colours_on_a_line_report_the_last_mover(to_move):
    # unreachable through play: red holds row 0, blue holds column 6;
    # the side that moved last (not the side to move) is the winner
    cells = [[engine.EMPTY] * 7 for _ in range(6)]
    for c in range(4):
        cells[0][c] = engine.RED
    for r in range(1, 5):
        cells[r][6] = engine.BLUE
    board = engine.BoardState(cells=tuple(tuple(r) for r in cells), to_move=to_move)
    out = engine.outcome(board)
    if to_move == engine.BLUE:
        assert out.kind == engine.RED_WINS
        assert out.winning_cells == frozenset((0, c) for c in range(4))
    else:
        assert out.kind == engine.BLUE_WINS
        assert out.winning_cells == frozenset((r, 6) for r in range(1, 5))


# arbitrary grids over {empty, red, blue}: no gravity, no balance
CELL_GRIDS = st.lists(
    st.lists(st.sampled_from((engine.EMPTY, engine.RED, engine.BLUE)), min_size=7, max_size=7),
    min_size=6,
    max_size=6,
)
# a red overline on the bottom row and a blue column floating over an empty cell
_E, _R, _B = engine.EMPTY, engine.RED, engine.BLUE
FLOATING_BOTH = [[_R] * 5 + [_E, _E]] + [[_E] * 6 + [_B]] * 4 + [[_E] * 7]


@settings(max_examples=400, deadline=None)
@given(cells=CELL_GRIDS, to_move=st.sampled_from((engine.RED, engine.BLUE)))
@example(cells=FLOATING_BOTH, to_move=engine.RED)
@example(cells=FLOATING_BOTH, to_move=engine.BLUE)
def test_outcome_matches_scanner_on_arbitrary_grids(cells, to_move):
    # every cell counts, floating or not; with a line of each colour the
    # side that moved last wins; a grid of 42 pieces without one is a draw
    pieces = sum(v != engine.EMPTY for row in cells for v in row)
    board = engine.BoardState(
        cells=tuple(map(tuple, cells)), to_move=to_move, history=((0, engine.RED),) * pieces
    )
    byscan = scan(cells)
    last = engine.other(to_move)
    winner = last if last in byscan else next(iter(byscan), None)
    out = engine.outcome(board)
    if winner is None:
        assert out.kind == (engine.DRAW if pieces == 42 else engine.ONGOING)
        assert out.winning_cells == frozenset()
    else:
        assert out.kind == (engine.RED_WINS if winner == engine.RED else engine.BLUE_WINS)
        assert out.winning_cells == frozenset(byscan[winner])


# --- game runner ------------------------------------------------------------

def scripted_mover(game):
    """A deterministic mover that plays differently in each game."""

    def move(board):
        legal = board.legal_moves()
        return legal[(3 * game + 5 * board.turn + board.turn // 7) % len(legal)]

    return move


def test_lockstep_matches_one_game_at_a_time():
    calls = []

    def choose(indices, boards):
        calls.append(list(indices))
        return [scripted_mover(i)(b) for i, b in zip(indices, boards)]

    results = engine.play_lockstep(choose, 5)
    singles = [play_one_game({engine.RED: scripted_mover(i), engine.BLUE: scripted_mover(i)})
               for i in range(5)]
    assert results == singles
    assert len({final.turn for final, _, _ in results}) > 1  # games end at different plies
    assert len(calls) == max(final.turn for final, _, _ in results)
    for ply, indices in enumerate(calls):
        assert indices == [i for i, (final, _, _) in enumerate(results) if final.turn > ply]


def test_lockstep_illegal_column_ends_only_its_game():
    seen = []

    def choose(indices, boards):
        seen.append(list(indices))
        return [0 if i == 1 else scripted_mover(i)(b) for i, b in zip(indices, boards)]

    results = engine.play_lockstep(choose, 3)
    final, out, offender = results[1]
    # column 0 fills after six plies with no win; the seventh is illegal, unapplied
    assert final.turn == 6 and final.history == tuple((0, c) for c in (1, 2) * 3)
    assert out.kind == engine.ONGOING
    assert offender == engine.RED
    assert 1 in seen[6] and all(1 not in indices for indices in seen[7:])
    for i in (0, 2):
        final, out, offender = results[i]
        assert offender is None and out.is_terminal
        assert final.turn > 7
        assert final == engine.replay(col for col, _ in final.history)


# --- encoding ---------------------------------------------------------------

def test_encode_full_information():
    # channel 0 holds the pieces of the side to move, red or blue
    for moves in ([3, 3, 4, 2], [3, 3, 4, 2, 5]):
        board = engine.replay(moves)
        x = engine.encode(board)
        assert x.shape == (3, 6, 7) and x.dtype == np.float32
        for row in range(6):
            for col in range(7):
                v = board.cells[row][col]
                triple = x[:, row, col]
                if v == engine.EMPTY:
                    assert triple.tolist() == [0, 0, 1]
                elif v == board.to_move:
                    assert triple.tolist() == [1, 0, 0]
                else:
                    assert triple.tolist() == [0, 1, 0]


def test_encode_perspective_swaps_colours():
    board = engine.replay([3, 3, 4, 2, 5])
    assert board.to_move == engine.BLUE
    xb = engine.encode(board)
    xr = engine.encode(dataclasses.replace(board, to_move=engine.RED))
    assert np.array_equal(xr[0], xb[1])
    assert np.array_equal(xr[1], xb[0])
    assert np.array_equal(xr[2], xb[2])
    assert xr[0, 0, 3] == 1.0 and xb[0, 1, 3] == 1.0  # red (0, 3), blue (1, 3)


def test_hidden_cells_are_all_zero_triples():
    board = engine.replay([3, 3, 4, 2, 5])  # blue to move
    revealed = frozenset({(0, 3), (1, 3)})
    x = engine.encode(board, revealed)
    assert x[:, 0, 3].tolist() == [0, 1, 0]  # red: the opponent's piece
    assert x[:, 1, 3].tolist() == [1, 0, 0]  # blue: the mover's own piece
    # hidden occupied: all zero, distinguishable from empty (0,0,1)
    assert x[:, 0, 4].tolist() == [0, 0, 0]
    assert x[:, 0, 2].tolist() == [0, 0, 0]
    assert x[:, 0, 5].tolist() == [0, 0, 0]
    assert x[:, 5, 0].tolist() == [0, 0, 1]
    # open-fields channel never responds to masking
    assert np.array_equal(x[2], engine.encode(board)[2])


def test_encode_rejects_revealed_empty_cell():
    board = engine.replay([3])
    with pytest.raises(engine.RevealedEmptyCell):
        engine.encode(board, revealed={(5, 6)})


def test_occupied_cells_column_major_bottom_up():
    board = engine.replay([1, 1, 0, 3])
    assert board.occupied_cells() == ((0, 0), (0, 1), (1, 1), (0, 3))


# --- hiding -----------------------------------------------------------------

def test_sample_hidden_grid_counts():
    rng = np.random.default_rng(0)
    boards = {}
    board = engine.new_board()
    boards[0] = board
    # one representative board per piece count (winning lines are fine here)
    moves = [c for _ in range(6) for c in range(7)]
    for col in moves:
        if board.turn == 42:
            break
        if col in board.legal_moves():
            board = engine.apply_move(board, col)
            boards[board.turn] = board
    assert set(boards) == set(range(43))
    for t, b in boards.items():
        occ = set(b.occupied_cells())
        for k in range(0, 101, 10):
            p_h = k / 100
            revealed = engine.sample_hidden(b, p_h, rng)
            assert len(occ) - len(revealed) == math.floor(p_h * t)
            assert revealed <= occ


def test_sample_hidden_full_grid_on_two_boards():
    rng = np.random.default_rng(1)
    for t_moves in ([3, 3, 4, 2, 5, 0, 6], [0, 1, 2, 3, 4, 5, 6, 0, 1, 2]):
        b = engine.replay(t_moves)
        t = b.turn
        for k in range(101):
            p_h = k / 100
            revealed = engine.sample_hidden(b, p_h, rng)
            assert t - len(revealed) == math.floor(p_h * t)


def test_sample_hidden_bounds():
    b = engine.replay([3, 3])
    rng = np.random.default_rng(2)
    assert engine.sample_hidden(b, 0.0, rng) == frozenset(b.occupied_cells())
    assert engine.sample_hidden(b, 1.0, rng) == frozenset()
    with pytest.raises(ValueError):
        engine.sample_hidden(b, 1.5, rng)


def test_sample_hidden_is_uniform_ish():
    # each piece roughly equally likely to stay hidden
    b = engine.replay([0, 1, 2, 3])
    rng = np.random.default_rng(3)
    counts = {c: 0 for c in b.occupied_cells()}
    n = 4000
    for _ in range(n):
        revealed = engine.sample_hidden(b, 0.5, rng)  # hides 2 of 4
        for c in counts:
            if c not in revealed:
                counts[c] += 1
    for c, k in counts.items():
        assert abs(k / n - 0.5) < 0.05


# --- text format ------------------------------------------------------------

def test_board_text_round_trip():
    board = engine.replay([3, 3, 4, 2, 5, 6, 0])
    text = engine.board_to_text(board)
    lines = text.splitlines()
    assert len(lines) == 6 and all(len(l) == 7 for l in lines)
    cells = engine.text_to_cells(text)
    assert cells == board.cells
    again = engine.board_from_text(text)
    assert again.cells == board.cells


def test_board_text_hidden_view():
    board = engine.replay([3, 3])
    revealed = frozenset({(0, 3)})
    text = engine.board_to_text(board, revealed)
    assert text.splitlines()[5][3] == "r"  # bottom row printed last
    assert text.splitlines()[4][3] == "?"
    cells = engine.text_to_cells(text)
    assert cells[1][3] == 3  # hidden marker value
    with pytest.raises(engine.UnreachablePosition):
        engine.board_from_text(text)  # hidden cells are not a position


def test_board_from_text_reconstructs_reachable_position():
    board = engine.replay([3, 3, 4, 2, 5, 6, 0, 1, 2, 4])
    rebuilt = engine.board_from_text(engine.board_to_text(board))
    assert rebuilt.cells == board.cells
    assert rebuilt.to_move == board.to_move
    # history replays to the same cells
    assert engine.replay([c for c, _ in rebuilt.history]).cells == board.cells


def test_board_from_text_rejects_gravity_violation():
    text = "\n".join(
        [".......", ".......", ".......", "...r...", ".......", "......."]
    )
    with pytest.raises(engine.UnreachablePosition):
        engine.board_from_text(text)


def test_board_from_text_rejects_balance_violation():
    text = "\n".join(
        [".......", ".......", ".......", ".......", ".......", "rr....."]
    )
    with pytest.raises(engine.UnreachablePosition):
        engine.board_from_text(text)


def test_board_from_text_rejects_unreachable_win_continuation():
    # red holds a finished vertical, but equal piece counts mean blue
    # placed the final stone: play continued past a win
    text = "\n".join(
        [".......", ".......", "r......", "r......", "r..b.b.", "r..b.b."]
    )
    with pytest.raises(engine.UnreachablePosition):
        engine.board_from_text(text)


def test_board_from_text_accepts_final_win():
    board = engine.replay([3, 0, 3, 1, 3, 2, 3])
    rebuilt = engine.board_from_text(engine.board_to_text(board))
    assert engine.outcome(rebuilt).kind == engine.RED_WINS


# 6x7 grids over the text format's characters; most violate gravity or balance
GRIDS = st.lists(
    st.text(alphabet=".rb?", min_size=7, max_size=7), min_size=6, max_size=6
).map("\n".join)


@st.composite
def stacked_grids(draw):
    """Grids whose columns obey gravity, so the move-order search runs."""
    cols = [draw(st.text(alphabet="rb", max_size=6)) for _ in range(7)]
    return "\n".join(
        "".join(c[r] if r < len(c) else "." for c in cols) for r in range(5, -1, -1)
    )


@settings(max_examples=300, deadline=None)
@given(text=st.text() | GRIDS | stacked_grids())
def test_board_from_text_raises_only_typed_errors(text):
    try:
        board = engine.board_from_text(text)
    except (ValueError, engine.EngineError):
        return
    assert engine.text_to_cells(engine.board_to_text(board)) == engine.text_to_cells(text)
    assert engine.replay([c for c, _ in board.history]).cells == board.cells


def pin_texts() -> list:
    """Twenty texts from a seeded rng, alternating: a random-playout
    position, then a grid of stacked random columns holding equal red and
    blue counts (one more red when odd)."""
    rng = np.random.default_rng(2029)
    texts = []
    for i in range(20):
        if i % 2:
            n = int(rng.integers(6, 31))
            colours = rng.permutation(["r"] * ((n + 1) // 2) + ["b"] * (n // 2))
            slots = rng.choice(np.repeat(np.arange(7), 6), n, replace=False)
            stack = iter(colours)
            cols = ["".join(next(stack) for _ in range(h)) for h in np.bincount(slots, minlength=7)]
            rows = ("".join(c[r] if r < len(c) else "." for c in cols) for r in range(5, -1, -1))
            texts.append("\n".join(rows))
        else:
            board = engine.new_board()
            stop = int(rng.integers(8, 43))
            while board.turn < stop and not engine.outcome(board).is_terminal:
                legal = board.legal_moves()
                board = engine.apply_move(board, legal[int(rng.integers(len(legal)))])
            texts.append(engine.board_to_text(board))
    return texts


# board_from_text on pin_texts(), recorded once: the synthesized move order
# as a column string, or the UnreachablePosition message
NO_ORDER = "no legal move sequence reaches this position"
BOARD_FROM_TEXT_PINS = [
    "0020213111125354",
    "0012115353344646465",
    "511152232364",
    NO_ORDER,
    "30313252626444443",
    "200103132535354646465",
    "004161633132343",
    "20246666",
    "100021411141526333343565556",
    "20010010012133535464644545656",
    "10030011232446636",
    "10206162226334334346655",
    "02020311211322233545556646446660",
    NO_ORDER,
    "102115443",
    NO_ORDER,
    "2001001334335566565",
    NO_ORDER,
    "0011214365",
    "10425223536",
]


def test_board_from_text_move_order_is_pinned():
    # the order feeds BoardState.history, and with it the golden harvest pin
    got = []
    for text in pin_texts():
        try:
            got.append("".join(str(c) for c, _ in engine.board_from_text(text).history))
        except engine.UnreachablePosition as exc:
            got.append(str(exc))
    assert got == BOARD_FROM_TEXT_PINS


def test_replay_and_key():
    a = engine.replay([3, 3, 4])
    b = engine.replay([3, 3, 4])
    assert a.key() == b.key()
    assert a.key() != engine.new_board().key()
    # key covers the side to move, not the history
    flipped = engine.BoardState(cells=a.cells, to_move=engine.RED, history=())
    assert a.to_move == engine.BLUE
    assert flipped.key() != a.key()
    same_cells = engine.BoardState(cells=a.cells, to_move=engine.BLUE, history=())
    assert same_cells.key() == a.key()


def test_random_playouts_big_batch():
    rng = np.random.default_rng(12345)
    kinds = {engine.RED_WINS: 0, engine.BLUE_WINS: 0, engine.DRAW: 0}
    for _ in range(300):
        final = random_playout(rng)
        out = engine.outcome(final)
        kinds[out.kind] += 1
        assert scan(final.cells) or out.kind == engine.DRAW
    assert kinds[engine.RED_WINS] > kinds[engine.BLUE_WINS] > 0


def test_importing_c4xai_loads_no_process_pool():
    # no c4xai module starts processes; importing the package loads no pool
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = "import sys, c4xai; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
