"""Connect Four rules, board encoding, and colour-feature masking.

Boards are immutable values. Rows are indexed bottom-up (row 0 is the
bottom row), columns left to right. Coalitions of revealed colour
features are sets of (row, col) coordinates over occupied cells, with
the canonical feature order being column-major, bottom-up.
The four-in-a-row rule is stated once, on bitboards (``bitboards``,
``has_four``): ``outcome``, the move-order search of ``board_from_text``
and the MCTS playouts all test it there.
Every game runs through ``play_lockstep``, and every seeded series of
games (matches, curves, MCTS benchmarks) through ``play_series``, in
one process; a series repeats bit for bit for the same seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle
from typing import Callable, Iterable, Optional

import numpy as np

from . import Error

ROWS = 6
COLS = 7

EMPTY = 0
RED = 1
BLUE = 2

# Outcome kinds
ONGOING = "ongoing"
RED_WINS = "red_wins"
BLUE_WINS = "blue_wins"
DRAW = "draw"

_WIN_KIND = {RED: RED_WINS, BLUE: BLUE_WINS}

_CELL_CHARS = {EMPTY: ".", RED: "r", BLUE: "b"}
_CHAR_CELLS = {v: k for k, v in _CELL_CHARS.items()}
HIDDEN_CHAR = "?"


class EngineError(Error):
    pass


class InvalidColumn(EngineError):
    """Column index outside 0..6."""


class ColumnFull(EngineError):
    """Move into a column that already holds six pieces."""


class RevealedEmptyCell(EngineError):
    """A coalition member points at an empty cell."""


class UnreachablePosition(EngineError):
    """A cell grid that no legal move sequence produces."""


@dataclass(frozen=True)
class BoardState:
    """A position plus the move history that produced it.

    cells[row][col] holds EMPTY / RED / BLUE with row 0 at the bottom.
    Invariants: gravity (no floating pieces), piece balance
    (red count - blue count is 0 or 1, 1 exactly when blue moves next),
    and replay of ``history`` from the empty board reproduces ``cells``.
    """

    cells: tuple = field(default_factory=lambda: ((EMPTY,) * COLS,) * ROWS)
    to_move: int = RED
    history: tuple = ()

    @property
    def turn(self) -> int:
        """Number of pieces on the board."""
        return len(self.history)

    def column_height(self, col: int) -> int:
        h = 0
        while h < ROWS and self.cells[h][col] != EMPTY:
            h += 1
        return h

    def legal_moves(self) -> tuple:
        return tuple(c for c in range(COLS) if self.cells[ROWS - 1][c] == EMPTY)

    def occupied_cells(self) -> tuple:
        """Occupied coordinates in canonical order: column-major, bottom-up."""
        out = []
        for col in range(COLS):
            for row in range(ROWS):
                if self.cells[row][col] == EMPTY:
                    break
                out.append((row, col))
        return tuple(out)

    def key(self) -> bytes:
        """Stable position identifier (cells plus side to move)."""
        flat = bytes(self.cells[r][c] for r in range(ROWS) for c in range(COLS))
        return flat + bytes([self.to_move])


@dataclass(frozen=True)
class Outcome:
    kind: str
    winning_cells: frozenset = frozenset()

    @property
    def is_terminal(self) -> bool:
        return self.kind != ONGOING


def new_board() -> BoardState:
    return BoardState()


def other(colour: int) -> int:
    return BLUE if colour == RED else RED


def apply_move(board: BoardState, column: int) -> BoardState:
    """Drop the mover's piece into ``column``; returns the new position."""
    if not isinstance(column, (int, np.integer)) or isinstance(column, bool):
        raise InvalidColumn(f"column must be an integer, got {column!r}")
    if not 0 <= column < COLS:
        raise InvalidColumn(f"column {column} outside 0..{COLS - 1}")
    row = board.column_height(column)
    if row >= ROWS:
        raise ColumnFull(f"column {column} already holds {ROWS} pieces")
    cells = [list(r) for r in board.cells]
    cells[row][column] = board.to_move
    return BoardState(
        cells=tuple(tuple(r) for r in cells),
        to_move=other(board.to_move),
        history=board.history + ((column, board.to_move),),
    )


# The win rule on bitboards (Tromp's layout): cell (row, col) is bit
# col * COL_BITS + row of one int per colour, and the guard bit atop each
# column keeps runs from wrapping into the next column.
COL_BITS = ROWS + 1
_CELL_BITS = tuple(tuple(1 << (c * COL_BITS + r) for c in range(COLS)) for r in range(ROWS))


def bitboards(cells) -> tuple:
    """(red stones, blue stones) of a cell grid, read from all 42 cells."""
    red = blue = 0
    for line, bits in zip(cells, _CELL_BITS):
        for v, bit in zip(line, bits):
            if v == RED:
                red |= bit
            elif v == BLUE:
                blue |= bit
    return red, blue


def has_four(stones: int) -> bool:
    """Four in a row among ``stones``: vertical, horizontal, both diagonals."""
    return (
        (m := stones & (stones >> 1)) & (m >> 2)
        or (m := stones & (stones >> 7)) & (m >> 14)
        or (m := stones & (stones >> 8)) & (m >> 16)
        or (m := stones & (stones >> 6)) & (m >> 12)
    ) != 0


def _fours(stones: int) -> frozenset:
    """The cells of every run of four among ``stones``, overlines whole."""
    run = 0
    for d in (1, COL_BITS, COL_BITS + 1, COL_BITS - 1):  # as in has_four
        start = stones & (stones >> d) & (stones >> 2 * d) & (stones >> 3 * d)
        run |= start | (start << d) | (start << 2 * d) | (start << 3 * d)
    return frozenset(
        (bit % COL_BITS, bit // COL_BITS) for bit in range(COLS * COL_BITS) if run >> bit & 1
    )


def outcome(board: BoardState) -> Outcome:
    """Terminal status with the union of all completed lines. A grid no
    play reaches can hold a line of each colour; the side that moved
    last then wins."""
    red, blue = bitboards(board.cells)
    last = other(board.to_move)
    for colour in (last, board.to_move):
        stones = red if colour == RED else blue
        if has_four(stones):
            return Outcome(_WIN_KIND[colour], _fours(stones))
    if board.turn == ROWS * COLS:
        return Outcome(DRAW)
    return Outcome(ONGOING)


# ---------------------------------------------------------------------------
# Game runner: every game in the package is played through ``play_lockstep``,
# and every seeded series of games through ``play_series``.
# ---------------------------------------------------------------------------

def play_lockstep(choose: Callable, games: int) -> list:
    """Play ``games`` games from the empty board side by side.

    Every ply calls ``choose(indices, boards)`` once, with the indices of
    the games still running in ascending order and their boards, and
    takes one column per index back. A column outside
    ``board.legal_moves()`` ends its own game before it is applied; the
    other games play on. Returns one (final board, its Outcome,
    offending colour or None) per game, in game order.
    """
    boards = [new_board()] * games
    results = [None] * games
    live = list(range(games))  # the empty board is never terminal
    while live:
        cols = choose(live, [boards[i] for i in live])
        still = []
        for i, col in zip(live, cols):
            board = boards[i]
            if col not in board.legal_moves():
                results[i] = (board, Outcome(ONGOING), board.to_move)
                continue
            board = boards[i] = apply_move(board, col)
            out = outcome(board)
            if out.is_terminal:
                results[i] = (board, out, None)
            else:
                still.append(i)
        live = still
    return results


def result_for(out: Outcome, offender: Optional[int], colour: int) -> str:
    """'win', 'draw', 'loss' or 'illegal' for the player of ``colour``
    after ``play_lockstep``; the opponent's illegal move counts as a win."""
    if offender is not None:
        return "illegal" if offender == colour else "win"
    if out.kind == DRAW:
        return "draw"
    return "win" if out.kind == _WIN_KIND[colour] else "loss"


def play_series(make_a: Callable, make_b: Callable, seeds) -> list:
    """One game per SeedSequence in ``seeds``, all in lockstep, A playing
    red in even-numbered games. ``make_a(rngs)`` and ``make_b(rngs)``
    each return a ``play_lockstep`` chooser that moves game i with
    ``rngs[i]`` alone, in the order the game would draw on its own.
    A network chooser's float32 forward over one ply's boards can move
    in its low bits with the games that share the ply (as self-play's
    with ``update_every``), so results repeat per (seeds, game count).
    Returns (A's result, B's result, game length) per seed, in order.
    """
    rngs = [np.random.default_rng(ss) for ss in seeds]
    choosers = (make_a(rngs), make_b(rngs))

    def choose(indices, boards):
        turn = boards[0].turn  # one ply's boards share a turn; A moves where i has its parity
        cols = {}
        for side, chooser in enumerate(choosers):
            ks = [k for k, i in enumerate(indices) if (i + turn) % 2 == side]
            if ks:
                cols.update(zip(ks, chooser([indices[k] for k in ks], [boards[k] for k in ks])))
        return [cols[k] for k in range(len(indices))]

    games = zip(cycle((RED, BLUE)), play_lockstep(choose, len(rngs)))
    return [
        (result_for(out, offender, colour), result_for(out, offender, other(colour)), final.turn)
        for colour, (final, out, offender) in games
    ]


def encode(board: BoardState, revealed: Optional[Iterable] = None) -> np.ndarray:
    """Three-channel float32 input as the side to move sees it: revealed
    own pieces, revealed opponent pieces, open cells.

    A hidden occupied cell is the all-zero channel triple, which keeps it
    distinguishable from an empty cell (channel 2 stays 0). ``revealed``
    defaults to every occupied cell.
    """
    occ = set(board.occupied_cells())
    if revealed is None:
        revealed_set = occ
    else:
        revealed_set = set(revealed)
        bad = revealed_set - occ
        if bad:
            raise RevealedEmptyCell(f"not occupied: {sorted(bad)}")
    x = np.zeros((3, ROWS, COLS), dtype=np.float32)
    ch = {board.to_move: 0, other(board.to_move): 1}
    for row in range(ROWS):
        for col in range(COLS):
            v = board.cells[row][col]
            if v == EMPTY:
                x[2, row, col] = 1.0
            elif (row, col) in revealed_set:
                x[ch[v], row, col] = 1.0
    return x


def sample_hidden(board: BoardState, p_h: float, rng: np.random.Generator) -> frozenset:
    """Hide floor(p_h * t) pieces uniformly; returns the revealed set."""
    if not 0.0 <= p_h <= 1.0:
        raise ValueError(f"p_h must lie in [0, 1], got {p_h}")
    occ = board.occupied_cells()
    t = len(occ)
    n_hidden = int(np.floor(p_h * t))
    if n_hidden == 0:
        return frozenset(occ)
    hidden_idx = rng.choice(t, size=n_hidden, replace=False)
    hidden = {occ[i] for i in hidden_idx}
    return frozenset(c for c in occ if c not in hidden)


# ---------------------------------------------------------------------------
# Text format: 6 lines of 7 characters from {., r, b, ?}, top row first.
# ---------------------------------------------------------------------------

def board_to_text(board: BoardState, revealed: Optional[Iterable] = None) -> str:
    """Render a board, with '?' on occupied cells outside ``revealed``."""
    shown = set(board.occupied_cells()) if revealed is None else set(revealed)
    lines = []
    for row in range(ROWS - 1, -1, -1):
        chars = []
        for col in range(COLS):
            v = board.cells[row][col]
            if v != EMPTY and (row, col) not in shown:
                chars.append(HIDDEN_CHAR)
            else:
                chars.append(_CELL_CHARS[v])
        lines.append("".join(chars))
    return "\n".join(lines)


def text_to_cells(text: str) -> tuple:
    """Parse the text format into a cell grid; '?' maps to the value 3."""
    raw = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(raw) != ROWS:
        raise ValueError(f"expected {ROWS} rows, got {len(raw)}")
    grid = [[EMPTY] * COLS for _ in range(ROWS)]
    for i, line in enumerate(raw):
        if len(line) != COLS:
            raise ValueError(f"row {i} has {len(line)} characters, expected {COLS}")
        row = ROWS - 1 - i
        for col, chr_ in enumerate(line):
            if chr_ == HIDDEN_CHAR:
                grid[row][col] = 3
            elif chr_ in _CHAR_CELLS:
                grid[row][col] = _CHAR_CELLS[chr_]
            else:
                raise ValueError(f"bad character {chr_!r} at row {i}, col {col}")
    return tuple(tuple(r) for r in grid)


def board_from_text(text: str) -> BoardState:
    """Reconstruct a BoardState, synthesizing a legal move order.

    The grid must contain no '?' (full information), respect gravity and
    piece balance, and admit an ordering in which colours alternate and
    no four-in-a-row appears before the final piece. Raises
    UnreachablePosition otherwise.
    """
    grid = text_to_cells(text)
    for row in range(ROWS):
        for col in range(COLS):
            if grid[row][col] == 3:
                raise UnreachablePosition("hidden cells cannot be replayed")
            if grid[row][col] != EMPTY and row > 0 and grid[row - 1][col] == EMPTY:
                raise UnreachablePosition(f"floating piece at ({row}, {col})")
    n_red = sum(r.count(RED) for r in grid)
    n_blue = sum(r.count(BLUE) for r in grid)
    if n_red - n_blue not in (0, 1):
        raise UnreachablePosition(f"piece counts red={n_red} blue={n_blue}")

    total = n_red + n_blue
    targets = [[grid[r][c] for r in range(ROWS)] for c in range(COLS)]
    col_totals = [sum(1 for v in targets[c] if v != EMPTY) for c in range(COLS)]

    # Depth-first search over column push orders. Placement row and colour
    # are forced per column, so the state is just the height tuple; prune
    # placements that complete a line before the last piece.
    dead = set()

    def search(heights, mover, waiting, ply, order):
        """``mover``: the stones of the side placing at ``ply``."""
        if ply == total:
            return order
        key = tuple(heights)
        if key in dead:
            return None
        colour = RED if ply % 2 == 0 else BLUE
        for col in range(COLS):
            h = heights[col]
            if h >= col_totals[col] or targets[col][h] != colour:
                continue
            placed = mover | 1 << (col * COL_BITS + h)
            if ply < total - 1 and has_four(placed):
                continue
            heights[col] += 1
            found = search(heights, waiting, placed, ply + 1, order + [col])
            heights[col] -= 1
            if found is not None:
                return found
        dead.add(key)
        return None

    order = search([0] * COLS, 0, 0, 0, [])
    if order is None:
        raise UnreachablePosition("no legal move sequence reaches this position")
    return replay(order)


def replay(columns: Iterable[int]) -> BoardState:
    """Apply a column sequence from the empty board."""
    board = new_board()
    for col in columns:
        board = apply_move(board, int(col))
    return board
