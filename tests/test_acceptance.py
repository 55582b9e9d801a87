"""Release acceptance checklist, one test per numbered criterion.

A verbose run prints one verdict line per criterion. Criterion 8 trains
a 64-channel agent from scratch and carries the slow marker together
with criterion 11, which needs long attribution-guided matches. Both
soft checks (8c direction, all of 11) still run their measurements and
report shortfalls; criterion 11 emits warnings instead of failing
because its outcome depends on achieved training quality.

Criteria 6c, 6d, 10 and 11 read the desk checkpoint committed under
tests/data/, so they stay runnable without retraining.
"""

import itertools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from c4xai import attribution, charfn, engine, fwmask, harness, mcts, network, training
from oracles import QueryLog, distortion, exact_shapley_by_permutations

DATA = Path(__file__).parent / "data"
DESK_CKPT = DATA / "desk_checkpoint.ckpt"
DESK_SEED = 21
DESK_CONFIG = dict(conv_channels=64, p_h_max=0.5, total_games=2000, seed=DESK_SEED)


@pytest.fixture(scope="module")
def desk_params():
    params = network.load(DESK_CKPT)
    assert params.meta["seed"] == DESK_SEED
    return params


def table_game(t, rng):
    """Characteristic function from a random lookup table in [0, 1]."""
    table = rng.uniform(0.0, 1.0, size=1 << t)
    return charfn.CharacteristicFn(
        range(t), lambda S, tab=table: tab[sum(1 << f for f in S)]
    )


# --- 1 -------------------------------------------------------------------

def test_criterion_01_hoeffding_sample_count():
    """sample_count(0.01, 0.01) is exactly 26,492."""
    assert charfn.sample_count(0.01, 0.01) == 26492


# --- 2 -------------------------------------------------------------------

def test_criterion_02_shapley_oracle_equivalence():
    """Exact formulas agree to 1e-12; sampling hits the Hoeffding band."""
    rng = np.random.default_rng(202)
    for _ in range(50):
        nu = table_game(6, rng)
        by_perm = exact_shapley_by_permutations(nu).values
        by_subset = charfn.exact_shapley(nu).values
        assert np.max(np.abs(by_perm - by_subset)) <= 1e-12

    n = charfn.sample_count(0.05, 0.01)
    good = 0
    for run in range(100):
        run_rng = np.random.default_rng(np.random.SeedSequence([404, run]))
        nu = table_game(6, run_rng)
        exact = charfn.exact_shapley(nu).values
        est = charfn.partial_shapley(nu, 0.0, n, run_rng).values
        if np.max(np.abs(est - exact)) <= 0.05:
            good += 1
    assert good >= 99, f"only {good}/100 runs inside the 0.05 band"


# --- 3 -------------------------------------------------------------------

def test_criterion_03_partial_axioms_and_efficiency_gap():
    """Symmetry, linearity, null player at 1e-12; efficiency breaks."""
    rng = np.random.default_rng(3)
    subsets = [frozenset(s) for r in range(6)
               for s in itertools.combinations(range(5), r)]
    t1 = {S: float(rng.normal()) for S in subsets}
    t2 = {S: float(rng.normal()) for S in subsets}
    nu1 = charfn.CharacteristicFn(range(5), lambda S: t1[frozenset(S)])
    nu2 = charfn.CharacteristicFn(range(5), lambda S: t2[frozenset(S)])
    combo = charfn.CharacteristicFn(
        range(5), lambda S: 2.0 * t1[frozenset(S)] - 0.5 * t2[frozenset(S)]
    )
    v1 = charfn.exact_shapley(nu1, 0.4).values
    v2 = charfn.exact_shapley(nu2, 0.4).values
    vc = charfn.exact_shapley(combo, 0.4).values
    assert np.max(np.abs(vc - (2.0 * v1 - 0.5 * v2))) <= 1e-12

    sym = charfn.CharacteristicFn(
        range(5), lambda S: len(S) ** 1.5 + (2.0 if 4 in S else 0.0)
    )
    sv = charfn.exact_shapley(sym, 0.4).values
    assert np.max(np.abs(np.diff(sv[:4]))) <= 1e-12

    weights = {0: 1.0, 1: 0.0, 2: -2.0, 3: 0.7}
    null = charfn.CharacteristicFn(
        range(4), lambda S: sum(weights[f] for f in S) ** 2
    )
    assert abs(charfn.exact_shapley(null, 0.3).values[1]) <= 1e-12

    # threshold game: every admissible marginal vanishes, so the partial
    # values are identically zero while the grand coalition is worth 1
    t, p = 6, 0.5
    floor = math.ceil(p * t)
    thr = charfn.CharacteristicFn(range(t), lambda S: float(len(S) >= floor))
    partial = charfn.exact_shapley(thr, p).values
    assert np.all(partial == 0.0)
    assert partial.sum() != 1.0
    assert abs(charfn.exact_shapley(thr).values.sum() - 1.0) <= 1e-12


# --- 4 -------------------------------------------------------------------

def test_criterion_04_on_manifold_query_floor():
    """At p=0.5 no coalition below ceil(t/2)-1 is ever evaluated."""
    for t, seed in ((8, 40), (7, 41)):
        rng = np.random.default_rng(seed)
        log = QueryLog(table_game(t, rng))
        charfn.partial_shapley(log, 0.5, 10_000, rng)
        assert len(log.sizes) > 10_000
        assert log.min_size >= math.ceil(t / 2) - 1, (t, log.min_size)


# --- 5 -------------------------------------------------------------------

def test_criterion_05_gradient_exactness():
    """Analytic backward matches central differences on every layer."""
    rng = np.random.default_rng(5)
    params = network.init(network.ArchDescriptor(8), rng, dtype=np.float64)
    board = engine.new_board()
    for _ in range(10):
        legal = board.legal_moves()
        board = engine.apply_move(board, int(legal[rng.integers(len(legal))]))
    x = engine.encode(board).astype(np.float64)
    cp = rng.normal(size=network.N_ACTIONS)
    cv = float(rng.normal())

    def loss(p, xin):
        tr = network.forward(p, xin)
        return float(tr.policy[0] @ cp + tr.value[0] * cv)

    trace = network.forward(params, x)
    grads, input_grad = network.backward(
        params, trace, policy_grad=cp[None], value_grad=np.array([cv])
    )
    step = 1e-5
    checked = 0
    for name, _ in params.arch.param_specs():
        tensor = params.tensors[name]
        for fi in rng.choice(tensor.size, size=min(4, tensor.size), replace=False):
            idx = np.unravel_index(fi, tensor.shape)
            orig = tensor[idx]
            tensor[idx] = orig + step
            up = loss(params, x)
            tensor[idx] = orig - step
            down = loss(params, x)
            tensor[idx] = orig
            fd = (up - down) / (2 * step)
            an = grads[name][idx]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) <= 1e-4, (name, idx)
            checked += 1
    while checked < 100:
        ch, r, c = rng.integers(3), rng.integers(6), rng.integers(7)
        xp = x.copy(); xp[ch, r, c] += step
        xm = x.copy(); xm[ch, r, c] -= step
        fd = (loss(params, xp) - loss(params, xm)) / (2 * step)
        an = input_grad[0, ch, r, c]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) <= 1e-4, ("input", ch, r, c)
        checked += 1
    assert checked >= 100


# --- 6 -------------------------------------------------------------------

def test_criterion_06a_lmo_matches_exhaustive_vertices():
    """LMO value equals brute-force minimization over polytope vertices."""
    rng = np.random.default_rng(60)
    for trial in range(30):
        g = np.zeros(42)
        support = rng.choice(42, size=12, replace=False)
        g[support] = rng.normal(size=12)
        if trial % 3 == 0:
            g[support[1]] = g[support[0]]  # exact tie inside the support
        if trial % 5 == 0:
            g[support[:6]] = np.abs(g[support[:6]])  # fewer negatives than k
        for k in (1, 2, 3, 5, 12):
            v = fwmask.lmo_ksparse(g, k).ravel()
            assert set(np.unique(v)) <= {0.0, 1.0}
            assert v.sum() <= k
            got = sum(g[i] for i in sorted(np.nonzero(v)[0]))
            best = 0.0
            for r in range(1, min(k, 12) + 1):
                for S in itertools.combinations(sorted(support), r):
                    best = min(best, sum(g[i] for i in S))
            assert got == best, (trial, k, got, best)


def test_criterion_06b_iterates_stay_feasible():
    rng = np.random.default_rng(61)
    params = network.init(network.ArchDescriptor(8), rng, dtype=np.float64)
    board = engine.new_board()
    for col in (3, 0, 3, 1, 3, 2, 4, 4):
        board = engine.apply_move(board, col)
    for step_rule in ("agnostic", "line_search"):
        seen = []
        fwmask.fw_optimize(
            params, board, fwmask.FWConfig(k=3.0, iterations=30, step_rule=step_rule),
            on_iterate=lambda tau, m: seen.append(m),
        )
        assert len(seen) == 30
        for m in seen:
            assert m.min() >= -1e-12 and m.max() <= 1.0 + 1e-12
            assert m.sum() <= 3.0 + 1e-9, step_rule


def self_play_boards(params, n_boards, plies, seed):
    """Distinct ongoing positions after ``plies`` policy-sampled moves."""
    rng = np.random.default_rng(seed)
    boards, seen = [], set()
    while len(boards) < n_boards:
        board = engine.new_board()
        ok = True
        for _ in range(plies):
            policy = network.forward_boards(params, [board]).policy[0]
            probs = np.asarray(policy, dtype=np.float64)
            probs /= probs.sum()
            col = int(rng.choice(network.N_ACTIONS, p=probs))
            if board.column_height(col) >= engine.ROWS:
                ok = False
                break
            board = engine.apply_move(board, col)
            if engine.outcome(board).is_terminal:
                ok = False
                break
        if ok and board.key() not in seen:
            seen.add(board.key())
            boards.append(board)
    return boards


def test_criterion_06c_distortion_near_binary_minimum(desk_params):
    """FW at k=3 lands within 10% of the best reveal-3 binary mask."""
    boards = self_play_boards(desk_params, 20, 8, seed=62)
    for board in boards:
        res = fwmask.fw_optimize(desk_params, board, fwmask.FWConfig(k=3.0))
        occ = board.occupied_cells()
        assert len(occ) == 8
        d_min = np.inf
        for S in itertools.combinations(occ, 3):
            m = np.zeros((engine.ROWS, engine.COLS))
            for r, c in S:
                m[r, c] = 1.0
            d_min = min(d_min, distortion(
                desk_params, board, res.meta["a_star"], m))
        assert res.distortion <= 1.1 * d_min + 1e-15, (board.history, res.distortion, d_min)


def test_criterion_06d_full_budget_reaches_zero_distortion(desk_params):
    boards = self_play_boards(desk_params, 2, 8, seed=63)
    for board in boards:
        full = fwmask.fw_optimize(desk_params, board, fwmask.FWConfig(k=42.0))
        assert full.distortion <= 1e-4
        tight = fwmask.fw_optimize(
            desk_params, board,
            fwmask.FWConfig(k=8.0, iterations=60, step_rule="line_search"),
        )
        assert tight.distortion <= 1e-4, (board.history, tight.distortion)


# --- 7 -------------------------------------------------------------------

WINDOWS = (
    [[(r, c + i) for i in range(4)] for r in range(6) for c in range(4)]
    + [[(r + i, c) for i in range(4)] for r in range(3) for c in range(7)]
    + [[(r + i, c + i) for i in range(4)] for r in range(3) for c in range(4)]
    + [[(r + i, c - i) for i in range(4)] for r in range(3) for c in range(3, 7)]
)


def scanner_outcome(board):
    """Brute-force reference: scan all 69 windows, union the complete ones."""
    assert len(WINDOWS) == 69
    cells_by_colour = {engine.RED: set(), engine.BLUE: set()}
    for kind, colour in ((engine.RED_WINS, engine.RED), (engine.BLUE_WINS, engine.BLUE)):
        for window in WINDOWS:
            if all(board.cells[r][c] == colour for r, c in window):
                cells_by_colour[colour].update(window)
    red, blue = cells_by_colour[engine.RED], cells_by_colour[engine.BLUE]
    if red and blue:
        raise AssertionError("both colours cannot complete lines")
    if red:
        return engine.RED_WINS, frozenset(red)
    if blue:
        return engine.BLUE_WINS, frozenset(blue)
    if board.turn == 42:
        return engine.DRAW, None
    return engine.ONGOING, None


def check_invariants(board):
    reds = blues = 0
    for col in range(engine.COLS):
        h = board.column_height(col)
        for row in range(engine.ROWS):
            v = board.cells[row][col]
            assert (v != engine.EMPTY) == (row < h), "gravity violated"
            reds += v == engine.RED
            blues += v == engine.BLUE
    assert reds - blues in (0, 1), "balance violated"
    assert reds + blues == board.turn


def test_criterion_07_engine_matches_line_scanner():
    """Outcome, gravity and balance on 10^4 playout positions; exact
    hidden-count floor over the whole p_h grid."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 10_000:
        board = engine.new_board()
        while True:
            out = engine.outcome(board)
            kind, cells = scanner_outcome(board)
            assert out.kind == kind
            if kind in (engine.RED_WINS, engine.BLUE_WINS):
                assert frozenset(out.winning_cells) == cells
            check_invariants(board)
            checked += 1
            if out.is_terminal:
                break
            legal = board.legal_moves()
            board = engine.apply_move(board, int(legal[rng.integers(len(legal))]))

    for target_t in (10, 17):
        board = engine.new_board()
        while board.turn < target_t:
            legal = board.legal_moves()
            board = engine.apply_move(board, int(legal[rng.integers(len(legal))]))
            if engine.outcome(board).is_terminal:
                board = engine.new_board()
        for i in range(101):
            revealed = engine.sample_hidden(board, i / 100, rng)
            expected_hidden = int(Fraction(i, 100) * target_t)
            assert target_t - len(revealed) == expected_hidden, (target_t, i)


# --- 8 -------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    cfg = training.PPOConfig(**DESK_CONFIG)
    out = tmp_path_factory.mktemp("desk_train")
    return training.train(cfg, out)


@pytest.mark.slow
def test_criterion_08a_illegal_rate_tail(desk_run):
    """Mean illegal-move rate over the last 200 training games < 2%."""
    tail = desk_run.history[-20:]
    rate = float(np.mean([row["illegal_rate"] for row in tail]))
    assert rate < 0.02, f"last-200 illegal rate {rate:.3f}"


@pytest.mark.slow
def test_criterion_08b_beats_uniform_random(desk_run):
    """Trained desk agent wins >= 90% of 200 games vs uniform random."""
    params = network.load(desk_run.checkpoint_path)
    stats = harness.play_vs_random(params, 200, seed=808)
    assert stats.win_rate >= 0.90, f"win rate {stats.win_rate:.3f}"


@pytest.mark.slow
def test_criterion_08c_information_helps_against_search(desk_run):
    """Soft check: full information should beat no information by >= 10
    points vs MCTS-200; a shortfall warns with the measured spread."""
    params = network.load(desk_run.checkpoint_path)
    rows = harness.info_perf_curve(
        params, selector="random", opponent=("mcts", 200),
        fractions=[0.0, 1.0], n_games=150, seed=88,
    )
    for row in rows:
        assert row["wins"] + row["draws"] + row["losses"] == row["n_games"]
    spread = rows[1]["win_rate"] - rows[0]["win_rate"]
    if spread < 0.10:
        warnings.warn(
            f"win rate vs MCTS-200 at fraction 1.0 is {rows[1]['win_rate']:.3f}, "
            f"at 0.0 is {rows[0]['win_rate']:.3f}; spread {spread:+.3f} "
            "is below the 10-point direction target"
        )


@pytest.mark.slow
def test_desk_checkpoint_is_the_desk_run(desk_run):
    """The committed desk checkpoint and training log are exactly what
    training at DESK_CONFIG produces: same log bytes, same checkpoint hash."""
    recipe = (
        "committed desk files differ from a fresh run at DESK_CONFIG; "
        "regenerate with `c4xai train --config desk.json --out DIR` where "
        f"desk.json holds {json.dumps(DESK_CONFIG)}, then copy DIR/checkpoint_final.ckpt "
        "to tests/data/desk_checkpoint.ckpt and DIR/training_log.csv to "
        "tests/data/desk_training_log.csv"
    )
    log = Path(desk_run.log_path).read_bytes()
    assert log == (DATA / "desk_training_log.csv").read_bytes(), recipe
    got = network.file_sha256(desk_run.checkpoint_path)
    assert got == network.file_sha256(DESK_CKPT), recipe


# --- 9 -------------------------------------------------------------------

def synthetic_case():
    board = engine.new_board()
    for col in (3, 0, 3, 1, 3, 6):
        board = engine.apply_move(board, col)
    cells = frozenset({(0, 3), (1, 3), (2, 3)})
    return harness.GroundTruthCase(
        board=board, winning_move=3, cells=cells, confidence=1.0
    )


def winning_line_oracle(params, board, rng):
    """Score 1.0 exactly on the pieces completing a line for the mover."""
    mover = board.to_move
    want = engine.RED_WINS if mover == engine.RED else engine.BLUE_WINS
    gt = set()
    for col in board.legal_moves():
        landing = (board.column_height(col), col)
        out = engine.outcome(engine.apply_move(board, col))
        if out.kind == want:
            gt.update(set(out.winning_cells) - {landing})
    return {cell: (1.0 if cell in gt else 0.0) for cell in board.occupied_cells()}


def test_criterion_09_hit_histogram_laws():
    """Random scorer follows the hypergeometric law; oracle is perfect."""
    rng = np.random.default_rng(90)
    params = network.init(network.ArchDescriptor(8), rng, dtype=np.float64)
    cases = [synthetic_case() for _ in range(500)]

    hist = harness.ground_truth_score(cases, "random", params, rng)
    assert hist.sum() == 500
    # drawing 3 of 6 pieces where 3 are relevant: [1, 9, 9, 1] / 20
    expected = 500 * np.array([1, 9, 9, 1]) / 20.0
    chi2 = float(((hist - expected) ** 2 / expected).sum())
    assert chi2 < 7.815, f"chi-square {chi2:.2f} against {hist.tolist()}"

    oracle_hist = harness.ground_truth_score(cases, winning_line_oracle, params, rng)
    assert oracle_hist[3] == 500, oracle_hist.tolist()


# --- 10 ------------------------------------------------------------------

def test_criterion_10_tournament_accounting(desk_params):
    """1,000-game random-vs-random match: fair share, valid identities,
    and a bit-exact rerun."""
    first = harness.play_match("random", "random", desk_params, 1000, seed=100)
    again = harness.play_match("random", "random", desk_params, 1000, seed=100)
    assert first == again, "rerun with the same seed must be bit-exact"

    first.verify()
    assert first.wins_a + first.wins_b + first.draws == 1000
    assert first.score_a + first.score_b == 1000.0
    share = first.score_a / 1000.0
    assert 0.45 <= share <= 0.55, f"score share {share:.3f}"


# --- 11 ------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_11_soft_pipeline_behaviour(desk_params):
    """Directional checks on the full pipeline; warns instead of failing."""
    rng = np.random.default_rng(110)
    try:
        cases = harness.harvest_ground_truth(
            desk_params, 25, rng, confidence=0.3, game_cap=4000
        )
    except harness.InsufficientCases as exc:
        cases = exc.collected
    if len(cases) < 5:
        warnings.warn(
            f"only {len(cases)} harvestable cases at confidence 0.3; "
            "agent too weak for the ground-truth comparison"
        )
        return
    hist = harness.ground_truth_score(cases, "shapley", desk_params, rng)
    hits2 = int(hist[2] + hist[3])
    if hits2 * 2 <= len(cases):
        warnings.warn(
            f"shapley matched >=2 ground-truth pieces on {hits2}/{len(cases)} "
            f"cases (histogram {hist.tolist()})"
        )

    match = harness.play_match(
        "fw", "random", desk_params, 300, seed=111, opts={"iterations": 12}
    )
    share = match.score_a / 300.0
    if share < 0.45:
        warnings.warn(
            f"fw masker scored {share:.3f} vs random "
            f"({match.wins_a}W {match.draws}D {match.wins_b}L)"
        )
