"""Shapley machinery against small games with known closed forms."""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from c4xai import charfn, engine, network
from oracles import QueryLog, exact_partial_shapley, exact_shapley_by_permutations, subset_sum_loop


def additive_game(weights: dict) -> charfn.CharacteristicFn:
    return charfn.CharacteristicFn(
        ground=sorted(weights), fn=lambda S: sum(weights[f] for f in S)
    )


def make_net_game(n_moves=6, head="pol", seed=0):
    rng = np.random.default_rng(seed)
    params = network.init(network.ArchDescriptor(8), rng, dtype=np.float64)
    board = engine.new_board()
    mrng = np.random.default_rng(seed + 1)
    while board.turn < n_moves:
        legal = board.legal_moves()
        board = engine.apply_move(board, int(legal[mrng.integers(len(legal))]))
        if engine.outcome(board).is_terminal:
            board = engine.new_board()
    nu = charfn.nu_pol(params, board) if head == "pol" else charfn.nu_val(params, board)
    return nu, params, board


# --- closed-form games -------------------------------------------------------

def test_additive_game_recovers_weights():
    weights = {"a": 0.3, "b": -1.2, "c": 2.0, "d": 0.0}
    nu = additive_game(weights)
    res = charfn.exact_shapley(nu)
    for f, phi in res.as_dict().items():
        assert abs(phi - weights[f]) < 1e-12


def test_null_player_gets_zero():
    weights = {"a": 1.0, "b": 0.0, "c": -0.5}
    nu = additive_game(weights)
    res = charfn.exact_shapley(nu)
    assert abs(res.as_dict()["b"]) < 1e-12


def test_efficiency_of_exact_values():
    rng = np.random.default_rng(4)
    table = {}

    def fn(S):
        key = frozenset(S)
        if key not in table:
            table[key] = float(rng.normal())
        return table[key]

    nu = charfn.CharacteristicFn(ground=range(5), fn=fn)
    res = charfn.exact_shapley(nu)
    grand = nu(range(5))
    empty = nu(())
    assert abs(res.values.sum() - (grand - empty)) < 1e-10


def test_symmetry_of_exact_values():
    # two players entering any coalition identically must tie
    def fn(S):
        k = len(S)
        return k * k + (3.0 if "x" in S else 0.0)

    nu = charfn.CharacteristicFn(ground=["a", "b", "x"], fn=fn)
    res = charfn.exact_shapley(nu).as_dict()
    assert abs(res["a"] - res["b"]) < 1e-12


def test_permutation_sum_matches_subset_sum():
    nu, _, _ = make_net_game(6)
    by_subset = charfn.exact_shapley(nu)
    by_perm = exact_shapley_by_permutations(nu)
    assert by_subset.features == by_perm.features
    assert np.max(np.abs(by_subset.values - by_perm.values)) < 1e-12
    assert by_subset.n_samples == 0


def test_ground_set_limits():
    big = charfn.CharacteristicFn(ground=range(13), fn=len)
    for p in (0.0, 0.5):
        with pytest.raises(charfn.GroundSetTooLarge):
            charfn.exact_shapley(big, p)


# --- sampling ----------------------------------------------------------------

def test_sample_count_formula():
    assert charfn.sample_count(0.01, 0.01) == 26492
    assert charfn.sample_count(0.5, 0.5) == 3
    assert charfn.sample_count(0.05, 0.01) == 1060
    for bad in ((0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0)):
        with pytest.raises(ValueError):
            charfn.sample_count(*bad)


def test_sampled_values_concentrate():
    nu, _, _ = make_net_game(6)
    exact = charfn.exact_shapley(nu).values
    epsilon = 0.2
    n = charfn.sample_count(epsilon, 0.05)
    fails = 0
    for seed in range(20):
        est = charfn.partial_shapley(nu, 0.0, n, np.random.default_rng(seed)).values
        if np.max(np.abs(est - exact)) > epsilon:
            fails += 1
    assert fails <= 1


def test_partial_shapley_labels_its_form():
    nu, _, _ = make_net_game(5)
    for p, form in ((0.0, "sampled"), (0.5, "partial-sampled")):
        assert charfn.partial_shapley(nu, p, 50, np.random.default_rng(7)).meta == {"form": form}


def test_partial_sampling_agrees_with_enumeration():
    nu, _, _ = make_net_game(5)
    exact = charfn.exact_shapley(nu, 0.4).values
    est = charfn.partial_shapley(nu, 0.4, 4000, np.random.default_rng(11)).values
    assert np.max(np.abs(est - exact)) < 0.05


# --- partial Shapley axioms ----------------------------------------------------

def test_partial_linearity_exact():
    rng = np.random.default_rng(13)
    t1 = {frozenset(S): float(rng.normal()) for S in _powerset(range(5))}
    t2 = {frozenset(S): float(rng.normal()) for S in _powerset(range(5))}
    nu1 = charfn.CharacteristicFn(range(5), lambda S: t1[frozenset(S)])
    nu2 = charfn.CharacteristicFn(range(5), lambda S: t2[frozenset(S)])
    combo = charfn.CharacteristicFn(
        range(5), lambda S: 2.0 * t1[frozenset(S)] - 0.5 * t2[frozenset(S)]
    )
    p = 0.4
    v1 = charfn.exact_shapley(nu1, p).values
    v2 = charfn.exact_shapley(nu2, p).values
    vc = charfn.exact_shapley(combo, p).values
    assert np.max(np.abs(vc - (2.0 * v1 - 0.5 * v2))) < 1e-12


def test_partial_symmetry_exact():
    def fn(S):
        return len(S) ** 1.5 + (2.0 if 4 in S else 0.0)

    nu = charfn.CharacteristicFn(range(5), fn)
    vals = charfn.exact_shapley(nu, 0.4).as_dict()
    # players 0..3 are interchangeable; 4 carries the bonus
    for i in range(3):
        assert abs(vals[i] - vals[i + 1]) < 1e-12
    assert abs(vals[4] - vals[0]) > 1e-6


def test_partial_null_player_exact():
    weights = {0: 1.0, 1: 0.0, 2: -2.0, 3: 0.7}
    nu = charfn.CharacteristicFn(
        range(4), lambda S: sum(weights[f] for f in S) ** 2
    )
    # feature 1 changes nothing in any coalition
    vals = charfn.exact_shapley(nu, 0.3).as_dict()
    assert abs(vals[1]) < 1e-12


def test_partial_additive_conditional_recovers_weights():
    weights = {0: 0.5, 1: -1.0, 2: 2.5, 3: 0.25, 4: 1.0}
    nu = charfn.CharacteristicFn(range(5), lambda S: sum(weights[f] for f in S))
    # an additive player's partial value is its weight times the admissible fraction
    t, floor = 5, math.ceil(0.4 * 5)
    raw = charfn.exact_shapley(nu, 0.4).as_dict()
    for f, w in weights.items():
        assert abs(raw[f] - w * (t - floor) / t) < 1e-12


def test_partial_efficiency_counterexample():
    # threshold game: the indicator of reaching the floor size; every
    # admissible marginal is zero, so the partial values are all zero
    # while the true Shapley values sum to one
    t, p = 6, 0.5
    floor = math.ceil(p * t)
    nu = charfn.CharacteristicFn(range(t), lambda S: float(len(S) >= floor))
    res = charfn.exact_shapley(nu, p)
    assert np.max(np.abs(res.values)) == 0.0
    full = charfn.exact_shapley(nu)
    assert abs(full.values.sum() - 1.0) < 1e-12
    assert abs(res.values.sum() - 1.0) > 0.9


def test_partial_p_zero_equals_full_shapley():
    # the subset form at p = 0 against the Shapley values summed term by term
    games = [make_net_game(6)[0]] + [table_game(t, t) for t in range(13)]
    for nu in games:
        diff = charfn.exact_shapley(nu, 0.0).values - subset_sum_loop(nu)
        assert np.max(np.abs(diff), initial=0) < 1e-12, nu.t


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75])
def test_exact_shapley_matches_the_permutation_oracle(p):
    for t in range(9):
        if math.ceil(p * t) >= t > 0:
            for exact in (charfn.exact_shapley, exact_partial_shapley):
                with pytest.raises(charfn.EmptyPermutationClass):
                    exact(table_game(t, t), p)
            continue
        got = charfn.exact_shapley(table_game(t, t), p)
        ref = exact_partial_shapley(table_game(t, t), p)
        assert got.features == ref.features and got.p == ref.p == p
        assert np.max(np.abs(got.values - ref.values), initial=0) <= 1e-12, t


def test_exact_shapley_is_efficient_at_p_zero():
    for t in range(13):
        nu = table_game(t, 100 + t)
        phi = charfn.exact_shapley(nu).values
        assert abs(phi.sum() - (nu.eval_mask((1 << t) - 1) - nu.eval_mask(0))) <= 1e-12, t


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75])
def test_exact_shapley_queries_each_admissible_coalition_once(p):
    t = 8
    floor = math.ceil(p * t)
    log = QueryLog(table_game(t, 9))
    charfn.exact_shapley(log, p)
    assert log.min_size == floor
    sizes = [bin(m).count("1") for m in range(1 << t)]
    assert sorted(log.sizes) == sorted(s for s in sizes if s >= floor)


def test_empty_permutation_class():
    nu = charfn.CharacteristicFn(range(5), len)
    with pytest.raises(charfn.EmptyPermutationClass):
        charfn.exact_shapley(nu, 1.0)
    with pytest.raises(charfn.EmptyPermutationClass):
        charfn.partial_shapley(nu, 0.9, 10, np.random.default_rng(0))  # ceil(4.5)=5
    # one admissible slot is enough
    charfn.exact_shapley(nu, 0.8)


def test_floor_boundaries():
    assert charfn._predecessor_floor(0.0, 7) == 0
    assert charfn._predecessor_floor(0.5, 8) == 4
    assert charfn._predecessor_floor(0.5, 7) == 4
    assert charfn._predecessor_floor(0.25, 8) == 2
    assert charfn._predecessor_floor(0.5, 0) == 0  # empty ground set passes


# --- manifold discipline -------------------------------------------------------

def test_sampler_never_queries_below_floor():
    nu, _, _ = make_net_game(8)
    log = QueryLog(nu)
    p = 0.5
    floor = math.ceil(p * nu.t)
    charfn.partial_shapley(log, p, 300, np.random.default_rng(17))
    assert log.sizes, "no queries recorded"
    assert log.min_size >= floor
    assert max(log.sizes) == nu.t


def test_plain_sampler_queries_from_empty():
    nu, _, _ = make_net_game(5)
    log = QueryLog(nu)
    charfn.partial_shapley(log, 0.0, 20, np.random.default_rng(19))
    assert log.min_size == 0


# --- network games -------------------------------------------------------------

def test_nu_pol_bounds_and_a_star():
    nu, params, board = make_net_game(6, head="pol")
    assert nu.t == 6
    assert nu.head == "policy"
    full = nu(board.occupied_cells())
    policy = network.forward_boards(params, [board]).policy[0]
    assert abs(full - policy[nu.a_star]) < 1e-15
    assert policy[nu.a_star] == policy.max()
    assert 0.0 <= nu(()) <= 1.0


def test_nu_val_range():
    nu, _, _ = make_net_game(6, head="val")
    assert nu.head == "value"
    assert -1.0 <= nu(()) <= 1.0


def test_masks_outside_the_ground_set_are_rejected():
    nu, _, _ = make_net_game(4)
    assert nu.t == 4
    for mask in (1 << 4, -1):
        with pytest.raises(charfn.MaskOutOfRange):
            nu.eval_mask(mask)
    for masks in ([2**63], [0, 1 << 4], [3, -1]):
        with pytest.raises(charfn.MaskOutOfRange):
            nu.eval_masks(masks)
    assert (nu.queries, nu.hits, nu.batches, nu._cache) == (0, 0, 0, {})
    assert nu.eval_masks([15, 0]).tolist() == [nu.eval_mask(15), nu.eval_mask(0)]


def test_non_integer_masks_are_rejected():
    nu, _, _ = make_net_game(4)
    value = nu.eval_mask(1)
    batches = nu.batches
    # 1.5 and 2.7 lie in [0, 2^t) but name no coalition; no value is cached for them
    for mask in (1.5, 2.7, np.float64(3.0), "1"):
        with pytest.raises(charfn.MaskOutOfRange):
            nu.eval_mask(mask)
    for masks in ([2.7], [1, 0.5], np.array([3.0]), ["1"], [2**70]):
        with pytest.raises(charfn.MaskOutOfRange):
            nu.eval_masks(masks)
    assert (nu.batches, list(nu._cache)) == (batches, [1])
    # integer types of any width still name coalitions, and the empty query is fine
    assert nu.eval_mask(np.int32(1)) == value
    assert nu.eval_masks(np.array([1], dtype=np.uint8)).tolist() == [value]
    assert nu.eval_masks([]).size == 0


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_a_float_mask_is_rejected_whatever_the_cache_holds(cached):
    nu, _, _ = make_net_game(4)
    if cached:
        nu.eval_mask(2)  # 2.0 == 2 finds this entry, yet names no coalition
    state = (dict(nu._cache), nu.queries, nu.hits, nu.batches)
    for mask in (2.0, np.float64(2)):
        with pytest.raises(charfn.MaskOutOfRange):
            nu.eval_mask(mask)
    assert (dict(nu._cache), nu.queries, nu.hits, nu.batches) == state


def test_an_eval_mask_miss_is_an_eval_masks_block_of_one():
    nu, _, _ = make_net_game(6)
    ref, _, _ = make_net_game(6)
    got = nu.eval_mask(13)
    assert type(got) is float and got == ref.eval_masks([13])[0]
    assert (nu.queries, nu.hits, nu.batches) == (ref.queries, ref.hits, ref.batches) == (1, 0, 1)
    assert nu._cache == ref._cache
    assert nu.eval_mask(np.int64(13)) == got
    assert (nu.queries, nu.hits, nu.batches) == (2, 1, 1)


def test_nu_rejects_terminal_board():
    rng = np.random.default_rng(23)
    params = network.init(network.ArchDescriptor(8), rng, dtype=np.float64)
    finished = engine.replay([3, 0, 3, 1, 3, 2, 3])
    with pytest.raises(charfn.CharFnError):
        charfn.nu_pol(params, finished)


def test_memoization_counts_unique_coalitions():
    calls = []

    def fn(S):
        calls.append(frozenset(S))
        return len(S)

    nu = charfn.CharacteristicFn(range(6), fn)
    exact_shapley_by_permutations(nu)
    assert len(calls) == 64  # 2^6 distinct masks despite 720 permutations


def _powerset(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield tuple(x for i, x in enumerate(items) if mask >> i & 1)


# --- batched evaluation --------------------------------------------------------

def table_game(t, seed):
    table = np.random.default_rng(seed).uniform(0.0, 1.0, size=1 << t)
    return charfn.CharacteristicFn(range(t), lambda S: table[sum(1 << f for f in S)])


def walk_partial_shapley(nu, p, n_permutations, rng):
    """Reference: walk each permutation in turn, one eval_mask per coalition."""
    t = nu.t
    floor = math.ceil(p * t - 1e-9)
    acc = np.zeros(t)
    hits = np.zeros(t)
    for _ in range(n_permutations):
        perm = rng.permutation(t)
        mask = 0
        for i in perm[:floor]:
            mask |= 1 << int(i)
        prev = nu.eval_mask(mask)
        for i in perm[floor:]:
            i = int(i)
            mask |= 1 << i
            cur = nu.eval_mask(mask)
            acc[i] += cur - prev
            hits[i] += 1
            prev = cur
    return np.where(hits > 0, acc / np.maximum(hits, 1), 0.0) * ((t - floor) / t)


def float32_net_game(n_moves=8, seed=0):
    _, params, board = make_net_game(n_moves, seed=seed)
    params32 = params.astype(np.float32)
    return lambda: charfn.nu_pol(params32, board)


@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("t", [7, 10])
def test_batched_partial_shapley_is_the_walk_bit_for_bit(t, p):
    got = charfn.partial_shapley(table_game(t, 3), p, 500, np.random.default_rng(41)).values
    ref = walk_partial_shapley(table_game(t, 3), p, 500, np.random.default_rng(41))
    assert np.array_equal(got, ref)


def test_batched_network_game_matches_the_walk_and_repeats():
    fresh = float32_net_game(8)
    assert fresh().t == 8
    got = charfn.partial_shapley(fresh(), 0.5, 300, np.random.default_rng(43)).values
    ref = walk_partial_shapley(fresh(), 0.5, 300, np.random.default_rng(43))
    assert np.max(np.abs(got - ref)) <= 1e-6
    again = charfn.partial_shapley(fresh(), 0.5, 300, np.random.default_rng(43)).values
    assert np.array_equal(got, again)


class EncodedCoalitionGame(charfn._NetworkGame):
    """Reference hook: each coalition's member set encoded cell by cell."""

    def _evaluate(self, masks):
        coalitions = [self.members(m) for m in masks]
        trace = network.forward_boards(self._params, [self.board] * len(coalitions), coalitions)
        return trace.policy[:, self.a_star] if self.head == "policy" else trace.value


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("head", ["policy", "value"])
@pytest.mark.parametrize("n_moves", [8, 17])
def test_mask_grid_hook_is_the_encoded_coalition_hook_bit_for_bit(n_moves, head, dtype):
    _, params, board = make_net_game(n_moves, seed=n_moves)
    params = params.astype(dtype)
    got_nu = charfn._NetworkGame(params, board, head)
    ref_nu = EncodedCoalitionGame(params, board, head)
    assert got_nu.t == n_moves
    got = charfn.partial_shapley(got_nu, 0.5, 200, np.random.default_rng(59)).values
    ref = charfn.partial_shapley(ref_nu, 0.5, 200, np.random.default_rng(59)).values
    assert np.array_equal(got, ref)
    counters = (got_nu.queries, got_nu.hits, got_nu.batches)
    assert counters == (ref_nu.queries, ref_nu.hits, ref_nu.batches)
    assert got_nu._cache == ref_nu._cache


def test_cache_keeps_every_coalition_of_a_long_walk():
    t, n = 18, 10_000
    nu = table_game(t, 5)
    charfn.partial_shapley(nu, 0.0, n, np.random.default_rng(47))
    rng = np.random.default_rng(47)
    distinct = {0}
    for _ in range(n):
        mask = 0
        for i in rng.permutation(t):
            mask |= 1 << int(i)
            distinct.add(mask)
    assert len(distinct) > 1 << 16
    assert nu.queries == n * (t + 1)
    assert nu.queries - nu.hits == len(distinct) == len(nu._cache)
    batches = nu.batches
    charfn.partial_shapley(nu, 0.0, n, np.random.default_rng(47))
    assert nu.batches == batches
    assert nu.queries - nu.hits == len(distinct)


def test_sampler_rejects_more_players_than_mask_bits():
    nu = charfn.CharacteristicFn(range(charfn.MASK_BITS + 1), len)
    with pytest.raises(charfn.GroundSetTooLarge):
        charfn.partial_shapley(nu, 0.5, 1, np.random.default_rng(0))


def test_counters_on_a_table_game():
    nu = table_game(6, 7)
    charfn.exact_shapley(nu)
    assert (nu.queries, nu.hits, nu.batches) == (64, 0, 1)
    nu.eval_mask(5)
    assert (nu.queries, nu.hits, nu.batches) == (65, 1, 1)
    fresh = table_game(6, 7)
    values = fresh.eval_masks([3, 3, 9, 3])
    assert values[0] == values[1] == values[3] == nu.eval_mask(3)
    assert (fresh.queries, fresh.hits, fresh.batches) == (4, 2, 1)


def test_counters_on_a_network_game(monkeypatch):
    forwards = []
    original = network.forward

    def counting_forward(params, x):
        trace = original(params, x)
        forwards.append(len(trace.policy))
        return trace

    nu = float32_net_game(8)()
    monkeypatch.setattr(network, "forward", counting_forward)
    charfn.partial_shapley(nu, 0.5, 100, np.random.default_rng(53))
    assert nu.queries == 100 * 5
    assert len(forwards) == nu.batches  # one forward per hook call
    assert sum(forwards) == nu.queries - nu.hits == len(nu._cache)
    assert max(forwards) <= charfn.BLOCK_ROWS


# --- blocks on helper threads --------------------------------------------------

def shapley_run(make_nu, helpers, monkeypatch, run, record=None):
    """``run(nu)`` with the helper-thread count fixed to ``helpers``;
    ``record`` collects the threads that evaluate blocks, and each
    thread's first block waits (10 s at most) until two threads have one."""
    monkeypatch.setattr(network, "_helper_threads", lambda: helpers)
    nu = make_nu()
    if record is not None:
        evaluate = nu._evaluate
        both = threading.Barrier(2, timeout=10)

        def recording(masks):
            if threading.get_ident() not in record:
                record.add(threading.get_ident())
                both.wait()
            return evaluate(masks)

        nu._evaluate = recording
    return run(nu), nu


def net_game_at(width, dtype, n_moves, seed):
    _, _, board = make_net_game(n_moves, seed=seed)
    params = network.init(network.ArchDescriptor(width), np.random.default_rng(seed), dtype=dtype)
    return lambda: charfn.nu_pol(params, board)


@pytest.mark.parametrize(
    "width, dtype", [(64, np.float32), (8, np.float64)], ids=["C64-float32", "C8-float64"]
)
def test_helper_threads_give_the_sequential_values_cache_and_counters(width, dtype, monkeypatch):
    make_nu = net_game_at(width, dtype, 10, seed=width)
    walks = charfn.sample_count(0.1, 0.05)  # 185 permutations, 6 coalitions each

    def run(nu):
        return charfn.partial_shapley(nu, 0.5, walks, np.random.default_rng(61)).values

    threads = set()
    got, got_nu = shapley_run(make_nu, 1, monkeypatch, run, threads)
    ref, ref_nu = shapley_run(make_nu, 0, monkeypatch, run)
    assert len(threads) == 2  # the helper evaluated blocks
    # every walk ends at the grand coalition, so masks repeat across blocks
    assert ref_nu.batches >= 3 and ref_nu.hits >= walks - 1
    assert np.array_equal(got, ref)
    assert got_nu._cache == ref_nu._cache
    assert (got_nu.queries, got_nu.hits, got_nu.batches) == (
        ref_nu.queries, ref_nu.hits, ref_nu.batches
    )


def test_helper_threads_give_the_sequential_exact_values(monkeypatch):
    make_nu = net_game_at(8, np.float64, 11, seed=3)

    def run(nu):
        return charfn.exact_shapley(nu).values

    threads = set()
    got, got_nu = shapley_run(make_nu, 1, monkeypatch, run, threads)
    ref, ref_nu = shapley_run(make_nu, 0, monkeypatch, run)
    assert got_nu.t == 11 and len(threads) == 2
    assert np.array_equal(got, ref)
    assert got_nu._cache == ref_nu._cache
    assert (got_nu.queries, got_nu.hits, got_nu.batches) == (1 << 11, 0, (1 << 11) // charfn.BLOCK_ROWS)


def test_one_helper_at_a_short_switch_interval_evaluates_every_block_once(monkeypatch):
    make_nu = net_game_at(8, np.float64, 11, seed=5)
    ref, ref_nu = shapley_run(make_nu, 0, monkeypatch, lambda nu: nu.eval_masks(np.arange(1 << 11)))
    rows = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(network, "_helper_threads", lambda: 1)
        nu = make_nu()
        evaluate = nu._evaluate

        def counting(masks):
            rows.extend(masks)
            return evaluate(masks)

        nu._evaluate = counting
        started = time.perf_counter()
        got = nu.eval_masks(np.arange(1 << 11))
    finally:
        sys.setswitchinterval(switch)
    assert time.perf_counter() - started < 60
    assert sorted(rows) == list(range(1 << 11))  # no block lost or repeated
    assert np.array_equal(got, ref) and nu._cache == ref_nu._cache


class BlockFailed(Exception):
    pass


class FailingGame(charfn._NetworkGame):
    """Raises on its second block (masks 64..127); the others take 20 ms."""

    def __init__(self, *args):
        super().__init__(*args)
        self.events = []
        self._lock = threading.Lock()

    def _evaluate(self, masks):
        block = masks[0] // charfn.BLOCK_ROWS
        with self._lock:
            self.events.append(("start", block))
            if block == 1:
                self.events.append(("failed", block))
        if block == 1:
            raise BlockFailed
        time.sleep(0.02)
        return super()._evaluate(masks)


@pytest.mark.parametrize("helpers", [1, 0])
def test_a_failed_block_stops_every_block_and_helper(helpers, monkeypatch):
    monkeypatch.setattr(network, "_helper_threads", lambda: helpers)
    _, params, board = make_net_game(10, seed=2)
    nu = FailingGame(params, board, "policy")
    nu.eval_masks(np.arange(10))  # some of the failing call's first block is cached
    state = (dict(nu._cache), nu.queries, nu.hits, nu.batches)
    before = threading.active_count()
    with pytest.raises(BlockFailed):
        nu.eval_masks(np.arange(6 * charfn.BLOCK_ROWS))
    assert threading.active_count() == before
    failed_at = nu.events.index(("failed", 1))
    assert not any(kind == "start" for kind, _ in nu.events[failed_at:])
    # the evaluated first block is not stored: cache and counters are untouched
    assert (nu._cache, nu.queries, nu.hits, nu.batches) == state


@pytest.mark.parametrize(
    "env, cpus, helpers",
    [
        ({}, 2, 0),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 0),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 0),
        ({"OMP_NUM_THREADS": "1"}, 2, 1),
        ({"GOTO_NUM_THREADS": "1"}, 2, 1),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 0),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 1),  # one helper: the count measured
        ({"OPENBLAS_NUM_THREADS": "4"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "4"}, 6, 0),
        ({"OPENBLAS_NUM_THREADS": "four"}, 2, 0),
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 0),
    ],
)
def test_helper_threads_take_the_cpus_blas_leaves_idle(env, cpus, helpers, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert network._helper_threads() == helpers


def test_helper_threads_count_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert network._helper_threads() == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert network._helper_threads() == 1

