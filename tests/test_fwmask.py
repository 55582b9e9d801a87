"""Rate-distortion mask optimization checks."""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from c4xai import engine, fwmask, network
from oracles import distortion, distortion_gradient

DESK_CKPT = Path(__file__).parent / "data" / "desk_checkpoint.ckpt"


def setup_case(seed=0, n_moves=8, channels=8):
    rng = np.random.default_rng(seed)
    params = network.init(network.ArchDescriptor(channels), rng, dtype=np.float64)
    board = engine.new_board()
    mrng = np.random.default_rng(seed + 100)
    while board.turn < n_moves:
        legal = board.legal_moves()
        board = engine.apply_move(board, int(legal[mrng.integers(len(legal))]))
        if engine.outcome(board).is_terminal:
            board = engine.new_board()
    return params, board


def full_info_a_star(params, board):
    return int(np.argmax(network.forward_boards(params, [board]).policy[0]))


def test_all_ones_mask_has_zero_distortion():
    params, board = setup_case(1)
    a_star = full_info_a_star(params, board)
    m = np.ones((6, 7))
    assert distortion(params, board, a_star, m) == 0.0


def test_all_zero_mask_hides_everything():
    params, board = setup_case(2)
    a_star = full_info_a_star(params, board)
    d0 = distortion(params, board, a_star, np.zeros((6, 7)))
    # equals the drop to the fully hidden board
    p_hidden = network.forward_boards(params, [board], [frozenset()]).policy[0, a_star]
    p_full = network.forward_boards(params, [board]).policy[0, a_star]
    assert abs(d0 - (p_full - p_hidden) ** 2) < 1e-15


def test_gradient_matches_finite_differences():
    params, board = setup_case(3)
    rng = np.random.default_rng(5)
    m = rng.uniform(0.2, 0.8, size=(6, 7))
    grad = distortion_gradient(params, board, m)
    a_star = full_info_a_star(params, board)
    step = 1e-6
    checked = 0
    cells = [(r, c) for r in range(6) for c in range(7)]
    rng.shuffle(cells)
    for r, c in cells[:20]:
        up = m.copy(); up[r, c] += step
        dn = m.copy(); dn[r, c] -= step
        fd = (
            distortion(params, board, a_star, up)
            - distortion(params, board, a_star, dn)
        ) / (2 * step)
        an = grad[r, c]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) <= 1e-4, ((r, c), fd, an)
        checked += 1
    assert checked == 20


def test_gradient_zero_on_unoccupied_cells():
    params, board = setup_case(4, n_moves=5)
    m = np.full((6, 7), 0.5)
    grad = distortion_gradient(params, board, m)
    occ = set(board.occupied_cells())
    for r in range(6):
        for c in range(7):
            if (r, c) not in occ:
                assert grad[r, c] == 0.0


# --- linear minimization oracle -----------------------------------------------

def test_lmo_matches_exhaustive_search():
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 5):
        g = np.zeros(42)
        support = rng.choice(42, size=12, replace=False)
        g[support] = rng.normal(size=12)
        v = fwmask.lmo_ksparse(g, k).ravel()
        # integral vertices of the constraint set: subsets of size <= k
        best = 0.0
        for size in range(0, k + 1):
            for S in combinations(support, size):
                val = g[list(S)].sum() if S else 0.0
                best = min(best, val)
        assert abs(float(v @ g) - best) < 1e-12
        assert set(np.unique(v)) <= {0.0, 1.0}
        assert v.sum() <= k


def test_lmo_takes_only_negative_entries():
    g = np.full(42, 1.0)
    g[3] = -0.5
    g[17] = -2.0
    g[30] = -0.1
    v = fwmask.lmo_ksparse(g, 5).ravel()
    assert v.sum() == 3.0
    assert v[3] == v[17] == v[30] == 1.0


def test_lmo_all_positive_gradient_gives_empty_vertex():
    g = np.abs(np.random.default_rng(9).normal(size=42)) + 0.1
    v = fwmask.lmo_ksparse(g, 4)
    assert v.sum() == 0.0


def test_lmo_fractional_budget_floors():
    g = -np.ones(42)
    v = fwmask.lmo_ksparse(g, 2.7)
    assert v.sum() == 2.0


# --- optimization -----------------------------------------------------------------

def test_iterates_stay_feasible():
    params, board = setup_case(11)
    k = 3
    seen = []

    def record(tau, m):
        seen.append(m)

    for rule in ("agnostic", "line_search"):
        seen.clear()
        fwmask.fw_optimize(
            params, board, fwmask.FWConfig(k=k, iterations=25, step_rule=rule),
            on_iterate=record,
        )
        assert len(seen) == 25
        for m in seen:
            assert m.min() >= 0.0 and m.max() <= 1.0
            assert m.sum() <= k + 1e-9


def test_trace_is_nonincreasing_and_best_returned():
    params, board = setup_case(13)
    for rule in ("agnostic", "line_search"):
        res = fwmask.fw_optimize(
            params, board, fwmask.FWConfig(k=3, iterations=30, step_rule=rule)
        )
        assert np.all(np.diff(res.trace) <= 1e-15)
        assert res.distortion == res.trace[-1]
        a_star = res.meta["a_star"]
        re_eval = distortion(params, board, a_star, res.mask)
        assert abs(re_eval - res.distortion) < 1e-12


def test_line_search_never_loses_to_agnostic_start():
    params, board = setup_case(17)
    cfg_ls = fwmask.FWConfig(k=2, iterations=15, step_rule="line_search")
    res = fwmask.fw_optimize(params, board, cfg_ls)
    # gamma = 0 is on the grid: the first trace entry cannot exceed the
    # starting distortion
    obj0 = distortion(
        params, board, res.meta["a_star"], np.full((6, 7), 2 / 42)
    )
    assert res.trace[0] <= obj0 + 1e-15


def test_budget_at_least_t_reaches_zero_distortion():
    # with k >= occupied count the all-revealed corner is feasible and
    # line search can drive the distortion to (numerical) zero
    params, board = setup_case(19, n_moves=6)
    cfg = fwmask.FWConfig(k=42, iterations=40, step_rule="line_search")
    res = fwmask.fw_optimize(params, board, cfg)
    assert res.distortion <= 1e-4


def test_config_validation():
    for k in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fwmask.FWConfig(k=k)
    with pytest.raises(ValueError):
        fwmask.FWConfig(iterations=0)
    with pytest.raises(ValueError):
        fwmask.FWConfig(step_rule="newton")


def test_terminal_board_rejected():
    params, _ = setup_case(29)
    finished = engine.replay([3, 0, 3, 1, 3, 2, 3])
    with pytest.raises(fwmask.FWError):
        fwmask.fw_optimize(params, finished, fwmask.FWConfig(k=2, iterations=2))


def test_result_csv_round_trip(tmp_path):
    params, board = setup_case(31)
    res = fwmask.fw_optimize(params, board, fwmask.FWConfig(k=2, iterations=5))
    path = tmp_path / "mask.csv"
    fwmask.result_to_csv(res, path)
    text = path.read_text()
    assert "# final_distortion=" in text
    assert "# k=" in text
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "row,col,mask"
    assert len(rows) == 1 + 42
    # values parse back exactly
    for line in rows[1:]:
        r, c, v = line.split(",")
        assert float(v) == res.mask[int(r), int(c)]


# --- duality gap and batched evaluation ----------------------------------------

def test_duality_gap_is_recorded_and_nonnegative():
    params, board = setup_case(37)
    for rule in ("agnostic", "line_search"):
        seen = []
        res = fwmask.fw_optimize(
            params, board, fwmask.FWConfig(k=3, iterations=20, step_rule=rule),
            on_iterate=lambda tau, m: seen.append(m),
        )
        assert res.gaps.shape == (20,)
        assert np.all(res.gaps >= -1e-12), rule
        # gap of iterate m_5, the one handed to on_iterate at tau = 4
        m = seen[4]
        grad = distortion_gradient(params, board, m)
        v = fwmask.lmo_ksparse(grad, 3)
        assert res.gaps[5] == float(-(grad * (v - m)).sum())


def test_gaps_stay_out_of_the_csv(tmp_path):
    params, board = setup_case(31)
    res = fwmask.fw_optimize(params, board, fwmask.FWConfig(k=2, iterations=5))
    text = open(fwmask.result_to_csv(res, tmp_path / "mask.csv")).read()
    assert "gap" not in text


def reference_line_search(params, board, cfg):
    """FW with one distortion() call per line-search grid point."""
    a_star = full_info_a_star(params, board)
    m = np.full((6, 7), cfg.k / 42)
    best_d, best_m = distortion(params, board, a_star, m), m.copy()
    gammas = np.linspace(0.0, 1.0, fwmask.LINE_SEARCH_GRID)
    for _ in range(cfg.iterations):
        direction = fwmask.lmo_ksparse(distortion_gradient(params, board, m), cfg.k) - m
        vals = [distortion(params, board, a_star, m + g * direction) for g in gammas]
        m = np.clip(m + gammas[int(np.argmin(vals))] * direction, 0.0, 1.0)
        d = distortion(params, board, a_star, m)
        if d < best_d:
            best_d, best_m = d, m.copy()
    return best_m


def test_batched_line_search_matches_per_point_reference():
    params, board = setup_case(41)
    cfg = fwmask.FWConfig(k=3, iterations=12, step_rule="line_search")
    res = fwmask.fw_optimize(params, board, cfg)
    assert np.array_equal(res.mask, reference_line_search(params, board, cfg))


def test_forwards_per_iteration(monkeypatch):
    params, board = setup_case(43)
    rows = []
    original = fwmask.network.forward

    def counting_forward(p, x, **kwargs):
        trace = original(p, x, **kwargs)
        rows.append(len(trace.policy))
        return trace

    monkeypatch.setattr(fwmask.network, "forward", counting_forward)
    fwmask.fw_optimize(params, board, fwmask.FWConfig(k=3, iterations=10))
    # reference policy, one forward per iterate m_0..m_9, the final iterate
    assert rows == [1] * 12
    rows.clear()
    taus = []
    cfg = fwmask.FWConfig(k=3, iterations=10, step_rule="line_search")
    fwmask.fw_optimize(params, board, cfg, on_iterate=lambda tau, m: taus.append(tau))
    # reference policy, gradient at m_0, grid from m_0, gradient at m_1,
    # grid from m_1 picks gamma = 0: m_2 == m_1, and nothing is evaluated again
    grid = fwmask.LINE_SEARCH_GRID
    assert rows == [1, 1, grid, 1, grid]
    assert taus == list(range(10))


def reference_fw(params, board, cfg, on_iterate):
    """FW that evaluates every iteration to the end: no fixed-point exit."""
    obj = fwmask._Objective(params, board)
    m = np.full((6, 7), min(cfg.k, 42) / 42)
    best_d, grad = obj.value_and_grad(m)
    best_m = m.copy()
    trace, gaps = [], []
    gammas = np.linspace(0.0, 1.0, fwmask.LINE_SEARCH_GRID)
    for tau in range(cfg.iterations):
        direction = fwmask.lmo_ksparse(grad, cfg.k) - m
        gaps.append(float(-(grad * direction).sum()))
        if cfg.step_rule == "line_search":
            vals = obj.values(m + gammas[:, None, None] * direction)
            gamma = gammas[int(np.argmin(vals))]
        else:
            gamma = 2.0 / (tau + 2.0)
        m = np.clip(m + gamma * direction, 0.0, 1.0)
        d, grad = obj.value_and_grad(m)
        if d < best_d:
            best_d, best_m = d, m.copy()
        trace.append(best_d)
        on_iterate(tau, m.copy())
    return best_m, best_d, trace, gaps


def assert_matches_reference(params, board, cfg):
    """fw_optimize equals reference_fw bit for bit; returns the iterates."""
    seen, ref_seen = [], []
    res = fwmask.fw_optimize(
        params, board, cfg, on_iterate=lambda tau, m: seen.append((tau, m.tobytes()))
    )
    mask, d, trace, gaps = reference_fw(
        params, board, cfg, lambda tau, m: ref_seen.append((tau, m.tobytes()))
    )
    assert res.mask.tobytes() == mask.tobytes()
    assert res.distortion == d
    assert res.trace.tobytes() == np.array(trace).tobytes()
    assert res.gaps.tobytes() == np.array(gaps).tobytes()
    assert seen == ref_seen
    return [m for _, m in seen]


@pytest.mark.parametrize("rule", ["agnostic", "line_search"])
@pytest.mark.parametrize("seed", [41, 43, 47, 53])
def test_fixed_point_exit_matches_full_iterations(rule, seed):
    params, board = setup_case(seed, n_moves=4 + seed % 13)
    for k, iterations in ((3, 30), (2.7, 12), (42, 25), (board.turn // 2 + 1, 1)):
        assert_matches_reference(params, board, fwmask.FWConfig(k, iterations, rule))


@pytest.mark.parametrize("rule", ["agnostic", "line_search"])
def test_fixed_point_exit_matches_full_iterations_on_the_desk_agent(rule):
    params = network.load(DESK_CKPT)
    for seed, k in ((1, 3), (2, 4), (3, 2.7)):
        _, board = setup_case(seed, n_moves=6 + 4 * seed)
        assert_matches_reference(params, board, fwmask.FWConfig(k, 20, rule))


def test_fixed_point_exit_at_tau_1_and_from_the_start():
    params, board = setup_case(43)
    iterates = assert_matches_reference(
        params, board, fwmask.FWConfig(3, 10, "line_search")
    )
    # the line search moves once, then picks gamma = 0 at tau = 1
    assert iterates[0] != np.full((6, 7), 3 / 42).tobytes()
    assert iterates[1:] == [iterates[0]] * 9
    # budget below one cell: the agnostic step lands on the empty vertex
    # at tau = 0 and cannot leave it
    iterates = assert_matches_reference(params, board, fwmask.FWConfig(0.5, 6))
    assert iterates == [np.zeros((6, 7)).tobytes()] * 6
    for rule in ("agnostic", "line_search"):
        # k = 0 starts on the empty vertex, so no step moves at all
        iterates = assert_matches_reference(params, board, fwmask.FWConfig(0, 4, rule))
        assert iterates == [np.zeros((6, 7)).tobytes()] * 4
