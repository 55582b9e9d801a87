"""Saliency methods, aggregation, and selection."""

from collections import Counter
from itertools import combinations

import math

import numpy as np
import pytest

from c4xai import attribution, charfn, engine, fwmask, network


def setup_case(seed=0, n_moves=8, channels=8, dtype=np.float64):
    rng = np.random.default_rng(seed)
    params = network.init(network.ArchDescriptor(channels), rng, dtype=dtype)
    board = engine.new_board()
    mrng = np.random.default_rng(seed + 1000)
    while board.turn < n_moves:
        legal = board.legal_moves()
        board = engine.apply_move(board, int(legal[mrng.integers(len(legal))]))
        if engine.outcome(board).is_terminal:
            board = engine.new_board()
    return params, board


def positive_params(channels=8, seed=0):
    """All-positive weights, zero biases: no cancellation anywhere."""
    rng = np.random.default_rng(seed)
    params = network.init(network.ArchDescriptor(channels), rng, dtype=np.float64)
    for name, tensor in params.tensors.items():
        if name.endswith("_w"):
            params.tensors[name] = np.abs(tensor) + 1e-3
        else:
            params.tensors[name] = np.zeros_like(tensor)
    return params


# --- individual methods ------------------------------------------------------

def test_smoothgrad_sigma_zero_equals_gradient():
    params, board = setup_case(1)
    g = attribution.gradient(params, board)
    s = attribution.smoothgrad(params, board, np.random.default_rng(2), n=5, sigma=0.0)
    assert np.allclose(g.scores, s.scores, atol=1e-14)
    assert g.a_star == s.a_star


def test_smoothgrad_deterministic_under_seed():
    params, board = setup_case(3)
    a = attribution.smoothgrad(params, board, np.random.default_rng(7))
    b = attribution.smoothgrad(params, board, np.random.default_rng(7))
    assert np.array_equal(a.scores, b.scores)
    c = attribution.smoothgrad(params, board, np.random.default_rng(8))
    assert not np.array_equal(a.scores, c.scores)


def test_smoothgrad_converges_to_neighborhood_mean():
    params, board = setup_case(5)
    g = attribution.gradient(params, board).scores
    s = attribution.smoothgrad(params, board, np.random.default_rng(9), n=400, sigma=0.02)
    # small noise, many samples: close to the plain gradient
    assert np.max(np.abs(s.scores - g)) < 0.05 * max(1.0, np.max(np.abs(g)))


def test_smoothgrad_draws_the_stream_of_n_separate_draws():
    params, board = setup_case(15)
    rng = np.random.default_rng(17)
    attribution.smoothgrad(params, board, rng, n=6, sigma=0.3)
    ref = np.random.default_rng(17)
    for _ in range(6):
        ref.normal(0.0, 0.3, size=(3, 6, 7))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [0, -1])
def test_smoothgrad_rejects_fewer_than_one_copy(n):
    params, board = setup_case(21)
    with pytest.raises(ValueError):
        attribution.smoothgrad(params, board, np.random.default_rng(0), n=n)


@pytest.mark.parametrize("sigma", [-0.5, -np.inf, np.nan, np.inf])
def test_smoothgrad_rejects_negative_or_non_finite_sigma(sigma):
    params, board = setup_case(21)
    with pytest.raises(ValueError, match="sigma"):
        attribution.smoothgrad(params, board, np.random.default_rng(0), n=2, sigma=sigma)


def test_smoothgrad_is_the_mean_of_per_copy_gradients():
    params, board = setup_case(19)
    x = network.forward_boards(params, [board]).x[0]
    a_star = attribution.gradient(params, board).a_star
    rng = np.random.default_rng(23)
    ref = np.zeros((3, 6, 7))
    for _ in range(8):
        trace = network.forward(params, x + rng.normal(0.0, 0.2, size=x.shape))
        _, g = network.backward(
            params, trace, policy_grad=np.eye(network.N_ACTIONS)[[a_star]], want_param_grads=False
        )
        ref += g[0]
    got = attribution.smoothgrad(params, board, np.random.default_rng(23), n=8, sigma=0.2)
    assert np.allclose(got.scores, ref / 8, rtol=1e-9, atol=1e-15)


def test_guided_backprop_differs_from_gradient_and_is_finite():
    params, board = setup_case(11)
    g = attribution.gradient(params, board)
    gb = attribution.guided_backprop(params, board)
    assert np.isfinite(gb.scores).all()
    assert gb.scores.shape == (3, 6, 7)
    assert not np.allclose(gb.scores, g.scores)


def test_guided_backprop_equals_logit_gradient_without_negative_paths():
    # with positive weights and no biases every upstream signal from the
    # a* logit is positive, so the guided mask never bites
    params = positive_params(seed=13)
    _, board = setup_case(13, n_moves=6)
    gb = attribution.guided_backprop(params, board)
    trace = network.forward_boards(params, [board])
    one_hot = np.zeros((1, 7)); one_hot[0, gb.a_star] = 1.0
    _, exact = network.backward(params, trace, policy_grad=one_hot, at_logits=True,
                                want_param_grads=False)
    assert np.allclose(gb.scores, exact[0], atol=1e-12)


def test_lrp_conservation_on_positive_net():
    params = positive_params(seed=17)
    _, board = setup_case(17, n_moves=8)
    smap = attribution.lrp_eps(params, board)
    trace = network.forward_boards(params, [board])
    target = float(trace.policy_logits[0, smap.a_star])
    total = float(smap.scores.sum())
    assert target > 0
    assert abs(total - target) / target < 1e-6


def test_lrp_absolute_epsilon_accepted():
    params, board = setup_case(19)
    a = attribution.lrp_eps(params, board, eps=1e-6)
    b = attribution.lrp_eps(params, board)
    assert np.isfinite(a.scores).all() and np.isfinite(b.scores).all()


def test_deeplift_self_baseline_gives_zero():
    params, board = setup_case(23)
    x = engine.encode(board)
    smap = attribution.deeplift_rescale(params, board, baseline=x)
    assert np.allclose(smap.scores, 0.0, atol=1e-12)


def test_deeplift_completeness():
    params, board = setup_case(29, n_moves=10)
    smap = attribution.deeplift_rescale(params, board)
    la = network.forward(params, engine.encode(board)).policy_logits[0, smap.a_star]
    lb = network.forward(params, engine.encode(board, frozenset())).policy_logits[0, smap.a_star]
    assert abs(smap.scores.sum() - (la - lb)) < 1e-6


def test_deeplift_nonzero_only_on_revealed_difference():
    params, board = setup_case(31)
    smap = attribution.deeplift_rescale(params, board)
    occ = set(board.occupied_cells())
    # x and the colour-blind baseline differ only on colour channels of
    # occupied cells, so contributions vanish elsewhere
    for r in range(6):
        for c in range(7):
            if (r, c) not in occ:
                assert smap.scores[0, r, c] == 0.0
                assert smap.scores[1, r, c] == 0.0
            assert smap.scores[2, r, c] == 0.0


def test_random_saliency_seeded():
    params, board = setup_case(37)
    a = attribution.random_saliency(params, board, np.random.default_rng(5))
    b = attribution.random_saliency(params, board, np.random.default_rng(5))
    assert np.array_equal(a.scores, b.scores)
    assert abs(a.scores.mean()) < 0.2


def test_random_saliency_is_the_rng_draw_without_a_forward(monkeypatch):
    params, board = setup_case(37)

    def no_forward(*args, **kwargs):
        raise AssertionError("random_saliency ran a forward")

    monkeypatch.setattr(network, "forward", no_forward)
    smap = attribution.random_saliency(params, board, np.random.default_rng(5))
    assert smap.a_star is None
    assert np.array_equal(smap.scores, np.random.default_rng(5).standard_normal((3, 6, 7)))


def test_input_saliency_is_encoding():
    params, board = setup_case(41)
    smap = attribution.input_saliency(params, board)
    assert np.array_equal(smap.scores, engine.encode(board))


# --- aggregation and selection --------------------------------------------------

def test_aggregate_sums_absolute_colour_channels():
    params, board = setup_case(43, n_moves=6)
    smap = attribution.gradient(params, board)
    agg = attribution.aggregate(smap, board)
    assert set(agg) == set(board.occupied_cells())
    for (r, c), v in agg.items():
        assert v == abs(smap.scores[0, r, c]) + abs(smap.scores[1, r, c])
        assert v >= 0


def test_aggregate_rejects_wrong_board():
    params, board = setup_case(47, n_moves=6)
    smap = attribution.gradient(params, board)
    other = engine.apply_move(board, int(board.legal_moves()[0]))
    with pytest.raises(attribution.ContextMismatch):
        attribution.aggregate(smap, other)


def test_select_top_counts():
    rng = np.random.default_rng(0)
    scores = {(0, c): float(10 - c) for c in range(4)}  # strict ordering
    assert attribution.select_top(scores, 0.0, rng) == frozenset()
    assert attribution.select_top(scores, 0.25, rng) == frozenset({(0, 0)})
    assert attribution.select_top(scores, 0.5, rng) == frozenset({(0, 0), (0, 1)})
    assert attribution.select_top(scores, 0.26, rng) == frozenset({(0, 0), (0, 1)})
    assert attribution.select_top(scores, 1.0, rng) == frozenset(scores)
    assert attribution.select_top({}, 0.5, rng) == frozenset()
    assert attribution.select_top(scores, None, rng, count=3) == frozenset(
        {(0, 0), (0, 1), (0, 2)}
    )
    with pytest.raises(ValueError):
        attribution.select_top(scores, 1.5, rng)


def test_select_top_tie_break_uniform():
    scores = {(0, c): 1.0 for c in range(4)}
    rng = np.random.default_rng(12345)
    counts = Counter()
    n = 12000
    for _ in range(n):
        counts[attribution.select_top(scores, 0.5, rng)] += 1
    subsets = list(combinations(sorted(scores), 2))
    assert len(counts) == len(subsets) == 6
    for subset in subsets:
        freq = counts[frozenset(subset)] / n
        assert abs(freq - 1 / 6) < 0.02


def test_select_top_scale_invariant_ranking():
    scores = {(0, c): float(c) for c in range(5)}
    scaled = {k: 100.0 * v + 3.0 for k, v in scores.items()}
    a = attribution.select_top(scores, 0.4, np.random.default_rng(3))
    b = attribution.select_top(scaled, 0.4, np.random.default_rng(3))
    assert a == b == frozenset({(0, 4), (0, 3)})


def test_select_top_partial_ties_at_boundary():
    # two tied cells compete for one remaining slot
    scores = {(0, 0): 5.0, (0, 1): 1.0, (0, 2): 1.0, (0, 3): 0.0}
    rng = np.random.default_rng(77)
    picks = Counter()
    for _ in range(4000):
        sel = attribution.select_top(scores, 0.5, rng)
        assert (0, 0) in sel and (0, 3) not in sel
        picks[(0, 1) in sel] += 1
    assert abs(picks[True] / 4000 - 0.5) < 0.05


# --- registry -------------------------------------------------------------------

def test_method_names_cover_everything():
    names = attribution.method_names()
    for expected in (
        "gradient",
        "smoothgrad",
        "guided_backprop",
        "lrp_eps",
        "deeplift_rescale",
        "random",
        "input",
        "shapley",
        "fw",
    ):
        assert expected in names


def test_unknown_method_raises():
    params, board = setup_case(53)
    with pytest.raises(attribution.UnknownMethod):
        attribution.piece_scores("mystery", params, board, np.random.default_rng(0))
    with pytest.raises(attribution.UnknownMethod):
        attribution.saliency("mystery", params, board, np.random.default_rng(0))
    with pytest.raises(attribution.UnknownMethod):
        attribution.select_features("mystery", params, board, 0.5, np.random.default_rng(0))
    with pytest.raises(attribution.UnknownMethod, match="'mystery'; maskers: "):
        attribution.check_method("mystery")
    for name in attribution.method_names():
        attribution.check_method(name)


@pytest.mark.parametrize(
    "method",
    ("gradient", "smoothgrad", "guided_backprop", "lrp_eps", "deeplift_rescale", "random", "input"),
)
def test_map_methods_reject_finished_boards(method):
    params, _ = setup_case(53)
    finished = engine.replay([3, 4, 3, 4, 3, 4, 3])
    with pytest.raises(attribution.AttributionError, match="ongoing"):
        attribution.saliency(method, params, finished, np.random.default_rng(0))


def test_input_fraction_override_reveals_all():
    params, board = setup_case(59, n_moves=9)
    sel = attribution.select_features("input", params, board, 0.2, np.random.default_rng(1))
    assert sel == frozenset(board.occupied_cells())


def test_shapley_scorer_small_boards():
    params, board = setup_case(71, n_moves=1)
    # t = 1 with p = 0.5 leaves no admissible slot; the fallback must
    # still produce a score for the lone piece
    scores = attribution.piece_scores(
        "shapley", params, board, np.random.default_rng(5), opts={"n": 20}
    )
    assert len(scores) == 1
    assert np.isfinite(list(scores.values())[0])


def test_shapley_scorer_empty_board(monkeypatch):
    params, _ = setup_case(73)
    monkeypatch.setattr(network, "forward_boards", lambda *a, **k: pytest.fail("forward ran"))
    scores = attribution.piece_scores(
        "shapley", params, engine.new_board(), np.random.default_rng(5), opts={"n": 5}
    )
    assert scores == {}


@pytest.mark.parametrize("fraction", [1.5, -0.5, float("nan")])
def test_piece_scores_rejects_a_fraction_outside_the_unit_interval(fraction):
    params, board = setup_case(83, n_moves=4)
    with pytest.raises(ValueError, match="fraction must lie in"):
        attribution.piece_scores("gradient", params, board, np.random.default_rng(0), fraction)


def test_fw_scorer_budget_follows_fraction():
    params, board = setup_case(79, n_moves=8)
    scores = attribution.piece_scores(
        "fw", params, board, np.random.default_rng(7), fraction=0.5,
        opts={"iterations": 5},
    )
    assert set(scores) == set(board.occupied_cells())
    assert all(0.0 <= v <= 1.0 for v in scores.values())
    selected = attribution.select_features(
        "fw", params, board, 0.5, np.random.default_rng(1), opts={"iterations": 5}
    )
    assert len(selected) == 4  # ceil(0.5 * 8)
    assert selected <= set(board.occupied_cells())


def spy_on(monkeypatch, module, name, calls, record):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("n_moves", [1, 8])
def test_shapley_masker_without_opts_samples_24_permutations_at_half(monkeypatch, n_moves):
    params, board = setup_case(71, n_moves=n_moves)
    calls = []
    spy_on(monkeypatch, charfn, "partial_shapley", calls, lambda nu, p, n, rng, **kw: (p, n, kw))
    scores = attribution.piece_scores("shapley", params, board, np.random.default_rng(5))
    assert set(scores) == set(board.occupied_cells())
    if n_moves == 1:
        # t = 1 leaves no admissible position at p = 0.5, so it samples again at p = 0
        assert calls == [(0.5, 24, {}), (0.0, 24, {})]
    else:
        assert calls == [(0.5, 24, {})]


def test_shapley_masker_falls_back_only_on_an_empty_permutation_class(monkeypatch):
    params, board = setup_case(71, n_moves=8)
    calls = []

    def out_of_range(nu, p, n, rng, **kw):
        calls.append(p)
        raise charfn.MaskOutOfRange("injected")

    monkeypatch.setattr(charfn, "partial_shapley", out_of_range)
    with pytest.raises(charfn.MaskOutOfRange):
        attribution.piece_scores("shapley", params, board, np.random.default_rng(5))
    assert calls == [0.5]


@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 1.0])
def test_fw_masker_without_opts_runs_50_agnostic_iterations_at_budget_ceil(monkeypatch, fraction):
    params, board = setup_case(79, n_moves=8)
    configs = []
    spy_on(monkeypatch, fwmask, "fw_optimize", configs, lambda params, board, cfg, **kw: (cfg, kw))
    attribution.piece_scores("fw", params, board, np.random.default_rng(7), fraction=fraction)
    k = max(1, math.ceil(fraction * board.turn))
    assert configs == [(fwmask.FWConfig(k=k, iterations=50, step_rule="agnostic"), {})]


def test_masking_can_flip_the_argmax():
    # hiding every piece changes the decision on at least one board;
    # fresh fan-in inits are contractive (layer gain < 1), so colour
    # differences die out before the head: rescale to gain > 1 the way
    # training does before probing for flips
    params, _ = setup_case(83)
    for name in params.tensors:
        if name.endswith("_w"):
            params.tensors[name] = params.tensors[name] * 3.0
    rng = np.random.default_rng(11)
    flipped = 0
    board = engine.new_board()
    for _ in range(200):
        if engine.outcome(board).is_terminal or board.turn > 30:
            board = engine.new_board()
        legal = board.legal_moves()
        board = engine.apply_move(board, int(legal[rng.integers(len(legal))]))
        if engine.outcome(board).is_terminal or board.turn < 4:
            continue
        trace = network.forward_boards(params, [board, board], [None, frozenset()])
        a_full, a_hidden = np.argmax(trace.policy, axis=1)
        if a_full != a_hidden:
            flipped += 1
    assert flipped > 0


def test_saliency_map_rejects_nonfinite():
    with pytest.raises(attribution.AttributionError):
        attribution.SaliencyMap(np.full((3, 6, 7), np.nan), "bad", 0, b"")


def test_dump_csv(tmp_path):
    params, board = setup_case(89, n_moves=5)
    maps = [
        attribution.gradient(params, board),
        attribution.input_saliency(params, board),
    ]
    path = tmp_path / "maps.csv"
    attribution.dump_csv(maps, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,board,channel,row,col,value"
    assert len(lines) == 1 + 2 * 3 * 6 * 7
    assert {l.split(",")[0] for l in lines[1:]} == {"gradient", "input"}
