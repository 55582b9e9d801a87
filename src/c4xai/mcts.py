"""UCT Monte-Carlo tree search opponent and the external move oracle.

The tree policy is plain UCB1 with uniform-random rollouts to the end
of the game. Node statistics are kept from the perspective of the
player whose move created the node, so selection always maximizes the
parent mover's interest. Each node keeps its untried columns in
ascending order; expansion takes one of them uniformly at random.
Nodes and rollouts keep the engine's bitboards (``engine.bitboards``)
and test wins with ``engine.has_four``; a rollout draws all its random
numbers as one ``rng.random`` block, one number per remaining ply.

``benchmark`` plays a trained agent against the search through
``engine.play_series``, all games in lockstep; the agent is
``network.policy_mover`` with ``argmax``, whose docstring states the
ply rule. A move oracle is any object with best_move(board) -> (column,
score|None); an external perfect solver plugs in as one over a line
protocol on standard streams.
"""

from __future__ import annotations

import math
import os
import re
import select as _select
import subprocess
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import Error, engine, network
from .engine import COL_BITS, has_four


class MCTSError(Error):
    pass


class IllegalRecord(MCTSError):
    pass


class OracleError(MCTSError):
    pass


EXPLORATION = math.sqrt(2.0)  # the UCT exploration constant


@dataclass(frozen=True)
class MCTSConfig:
    simulations: int

    def __post_init__(self):
        if self.simulations < 1:
            raise ValueError("simulations must be >= 1")


class _Node:
    __slots__ = ("cur", "occ", "heights", "ply", "terminal", "untried", "children", "n", "w")

    def __init__(self, cur, occ, heights, ply, terminal):
        self.cur = cur
        self.occ = occ
        self.heights = heights
        self.ply = ply
        self.terminal = terminal  # None, "win" (for the move's maker), "draw"
        # open columns not yet expanded, ascending
        self.untried = [c for c in range(engine.COLS) if heights[c] < engine.ROWS]
        self.children = {}
        self.n = 0
        self.w = 0.0


def _child(node: _Node, col: int) -> _Node:
    bit = 1 << (col * COL_BITS + node.heights[col])
    moved = node.cur | bit
    occ = node.occ | bit
    heights = list(node.heights)
    heights[col] += 1
    ply = node.ply + 1
    if has_four(moved):
        terminal = "win"
    elif ply == engine.ROWS * engine.COLS:
        terminal = "draw"
    else:
        terminal = None
    # the new side to move owns the other colour's stones
    return _Node(occ ^ moved, occ, heights, ply, terminal)


def _rollout(node: _Node, rng: np.random.Generator) -> float:
    """Random playout; +1/0/-1 from the perspective of the player whose
    move created ``node``.

    One uniform number u per remaining ply, drawn up front, picks
    ``legal[int(u * len(legal))]`` among the open columns (ascending; a
    column leaves the list when it fills). The win test is ``has_four``
    on the stones of the player who just moved."""
    if node.terminal == "win":
        return 1.0
    if node.terminal == "draw":
        return 0.0
    rows = engine.ROWS
    cur, occ = node.cur, node.occ
    heights = list(node.heights)
    legal = list(node.untried)  # a leaf is unexpanded: all its open columns
    # sign of the outcome for node's creator: the creator is the opponent
    # of the player to move at node, who moves first in the rollout
    sign = -1.0
    for u in rng.random(engine.ROWS * engine.COLS - node.ply).tolist():
        col = legal[int(u * len(legal))]
        height = heights[col]
        heights[col] = height + 1
        if height + 1 == rows:
            legal.remove(col)
        bit = 1 << (col * COL_BITS + height)
        moved = cur | bit
        occ |= bit
        if has_four(moved):
            return sign
        cur = occ ^ moved
        sign = -sign
    return 0.0  # the board filled without a line


@dataclass
class SearchResult:
    column: int
    visits: dict
    values: dict  # mean value per root move, creator's perspective
    simulations: int


def mcts_search(
    board: engine.BoardState, config: MCTSConfig, rng: np.random.Generator
) -> SearchResult:
    if engine.outcome(board).is_terminal:
        raise MCTSError("search from a terminal position")
    red, blue = engine.bitboards(board.cells)
    cur = red if board.to_move == engine.RED else blue
    heights = [board.column_height(col) for col in range(engine.COLS)]
    root = _Node(cur, red | blue, heights, board.turn, None)
    c = EXPLORATION
    for _ in range(config.simulations):
        node = root
        path = [node]
        # select: first visit of any node plays out from the node itself
        while node.terminal is None and node.n > 0:
            untried = node.untried
            if untried:
                col = untried.pop(int(rng.integers(len(untried))))
                child = node.children[col] = _child(node, col)
                if not untried:  # fully expanded: UCB scans columns in ascending order
                    node.children = dict(sorted(node.children.items()))
                path.append(child)
                node = child
                break
            log_n = math.log(node.n)
            best, best_score = None, -math.inf
            for ch in node.children.values():
                score = ch.w / ch.n + c * math.sqrt(log_n / ch.n)
                if score > best_score:
                    best, best_score = ch, score
            node = best
            path.append(node)
        value = _rollout(node, rng)
        # value is signed for the creator of the leaf; creators alternate
        for visited in reversed(path):
            visited.n += 1
            visited.w += value
            value = -value
    visits = {col: ch.n for col, ch in root.children.items()}
    values = {col: (ch.w / ch.n if ch.n else 0.0) for col, ch in root.children.items()}
    if visits:
        top = max(visits.values())
        best_cols = [col for col, n in visits.items() if n == top]
        column = int(best_cols[int(rng.integers(len(best_cols)))])
    else:
        # a one-simulation search only visits the root; pick uniformly
        legal = root.untried
        column = int(legal[int(rng.integers(len(legal)))])
    return SearchResult(column=column, visits=visits, values=values, simulations=config.simulations)


def search_mover(config: MCTSConfig, rngs) -> Callable:
    """The search as a ``play_series`` chooser, game i on ``rngs[i]``."""
    return lambda indices, boards: [
        mcts_search(b, config, rngs[i]).column for i, b in zip(indices, boards)
    ]


# ---------------------------------------------------------------------------
# benchmarking a trained agent against the search
# ---------------------------------------------------------------------------

@dataclass
class WinStats:
    """Disjoint outcome counts from the agent's perspective."""

    wins: int
    draws: int
    losses: int
    illegal: int
    n_games: int
    game_seeds: tuple = ()

    @property
    def win_rate(self) -> float:
        return self.wins / self.n_games if self.n_games else 0.0

    @classmethod
    def tally(cls, results, seeds) -> "WinStats":
        """Count the agent's ``engine.result_for`` strings, one per seed."""
        return cls(
            wins=results.count("win"),
            draws=results.count("draw"),
            losses=results.count("loss"),
            illegal=results.count("illegal"),
            n_games=len(results),
            game_seeds=tuple(int(ss.generate_state(1)[0]) for ss in seeds),
        )


def benchmark(
    params: network.NetworkParams, mcts_config: MCTSConfig, n_games: int, seed: int = 0
) -> WinStats:
    """Agent (argmax policy, full information) vs the search, colours
    alternating between games. An illegal agent move ends its game and
    lands in the separate ``illegal`` bucket."""
    if n_games < 1:
        raise ValueError("n_games must be >= 1")
    seeds = np.random.SeedSequence(seed).spawn(n_games)
    make_agent = partial(network.policy_mover, params, argmax=True)
    games = engine.play_series(make_agent, partial(search_mover, mcts_config), seeds)
    return WinStats.tally([agent for agent, _, _ in games], seeds)


def count_optimal_moves(params: network.NetworkParams, game_record) -> int:
    """How many of a 41-move reference game the agent predicts (argmax
    equals the recorded move at each of the 41 positions)."""
    record = [int(c) for c in game_record]
    if len(record) != 41:
        raise IllegalRecord(f"expected 41 moves, got {len(record)}")
    board = engine.new_board()
    count = 0
    for i, col in enumerate(record):
        if engine.outcome(board).is_terminal:
            raise IllegalRecord(f"game over before move {i}")
        if col not in board.legal_moves():
            raise IllegalRecord(f"illegal move {col} at ply {i}")
        if int(np.argmax(network.forward_boards(params, [board]).policy[0])) == col:
            count += 1
        board = engine.apply_move(board, col)
    return count


# ---------------------------------------------------------------------------
# external move oracle
# ---------------------------------------------------------------------------

class ExternalOracle:
    """Line-protocol client for an external solver process.

    Request:  ``POS <row6>/<row5>/.../<row1>`` (text board, top row first)
    Response: ``MOVE <col>`` optionally followed by ``SCORE <int>``, where
    ``<col>`` is one ASCII digit and ``<int>`` an optional ``-`` and ASCII
    digits; any other reply raises OracleError.
    """

    def __init__(self, cmd, timeout: float = 10.0):
        self.cmd = list(cmd)
        if not self.cmd:
            raise OracleError("empty oracle command")
        self.timeout = timeout
        self._proc = None

    def _ensure(self):
        if self._proc is None or self._proc.poll() is not None:
            try:
                self._proc = subprocess.Popen(
                    self.cmd,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                )
            except OSError as exc:
                raise OracleError(f"cannot start oracle {self.cmd!r}: {exc}") from exc
        return self._proc

    def _read_line(self, proc) -> str:
        fd = proc.stdout.fileno()
        buf = bytearray()
        deadline = time.monotonic() + self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OracleError(f"oracle timed out after {self.timeout}s")
            ready, _, _ = _select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise OracleError("oracle closed its output stream")
            buf.extend(chunk)
            if b"\n" in buf:
                line, _, rest = bytes(buf).partition(b"\n")
                if rest:
                    raise OracleError("oracle sent more than one line")
                return line.decode("utf-8", "replace").strip()

    def best_move(self, board: engine.BoardState) -> tuple:
        proc = self._ensure()
        request = "POS " + engine.board_to_text(board).replace("\n", "/") + "\n"
        try:
            proc.stdin.write(request.encode("utf-8"))
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise OracleError(f"oracle pipe failed: {exc}") from exc
        line = self._read_line(proc)
        parts = line.split()
        if len(parts) not in (2, 4) or parts[0] != "MOVE":
            raise OracleError(f"malformed oracle response {line!r}")
        if not re.fullmatch("[0-9]", parts[1]):
            raise OracleError(f"non-integer column in {line!r}")
        col = int(parts[1])
        score = None
        if len(parts) == 4:
            if parts[2] != "SCORE":
                raise OracleError(f"malformed oracle response {line!r}")
            if not re.fullmatch("-?[0-9]+", parts[3]):
                raise OracleError(f"non-integer score in {line!r}")
            try:
                score = int(parts[3])
            except ValueError as exc:  # more digits than int() converts
                raise OracleError(f"score too long in {line!r}") from exc
        if col not in board.legal_moves():
            raise OracleError(f"oracle chose illegal column {col}")
        return col, score

    def close(self):
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()
            self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
