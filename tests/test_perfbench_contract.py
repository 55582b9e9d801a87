"""What perfbench's span tracer relies on in c4xai.

``perfbench/spans.py`` wraps module attributes by name, counts
``CharacteristicFn.eval_mask`` spans for the charfn hit ratio, names a
backward span by its ``want_param_grads`` keyword and reads the
simulations of each ``mcts_search`` call from its ``config`` argument for
``mcts.sims_per_s``. These tests import it read-only and pin those
assumptions, how many conv input gradients each backward pass makes and
that a masked forward's shared conv2 rows still pass through
``network.conv_forward``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from c4xai import attribution, charfn, engine, mcts, network

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def case():
    params = network.init(network.ArchDescriptor(8), np.random.default_rng(3), dtype=np.float64)
    return params, engine.replay([3, 3, 4, 2, 5, 1])


def span_names(tracer):
    return [tracer.names[i] for i in tracer.name_id]


def test_every_trace_point_exists(spans):
    for owner, attr, *_ in spans.TRACE_POINTS:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


def test_eval_masks_reads_every_query_back_through_eval_mask(spans, case):
    nu = charfn.nu_pol(*case)
    queries = list(range(1 << nu.t)) + [0, 5, 5, 63]
    with spans.Tracer() as tracer:
        nu.eval_masks(queries)
    assert span_names(tracer).count("charfn.eval_mask") == len(queries) == nu.queries
    assert spans.originals_restored()


@pytest.mark.parametrize(
    "method", ("gradient", "smoothgrad", "guided_backprop", "deeplift_rescale", "fw")
)
def test_explainers_run_input_only_backward_passes(spans, case, method):
    with spans.Tracer() as tracer:
        attribution.piece_scores(method, *case, np.random.default_rng(0), opts={"iterations": 2})
    backwards = [n for n in span_names(tracer) if n.startswith("network.backward")]
    assert backwards and set(backwards) == {"network.backward_input"}


# (call on (params, trace, board), conv_input_backward spans, conv_forward spans)
BACKWARD_CALLS = {
    "backward_params": (
        lambda p, t, b: network.backward(p, t, np.ones((1, 7)), want_input_grad=False),
        3,
        0,
    ),
    "action_input_grad": (lambda p, t, b: network.action_input_grad(p, t, 2), 4, 0),
    "lrp_eps": (lambda p, t, b: attribution.lrp_eps(p, b), 4, 4),
}


@pytest.mark.parametrize("name", BACKWARD_CALLS)
def test_backward_passes_reach_conv_input_backward_through_the_module(spans, case, name):
    # keeps network.conv_input_backward.gflop comparable across kernel changes
    call, input_backwards, forwards = BACKWARD_CALLS[name]
    params, board = case
    trace = network.forward_boards(params, [board])
    with spans.Tracer() as tracer:
        call(params, trace, board)
    names = span_names(tracer)
    assert names.count("network.conv_input_backward") == input_backwards
    assert names.count("network.conv_forward") == forwards


def test_shared_conv2_gemm_is_a_conv_forward_span_of_its_distinct_rows(spans):
    # network.conv_forward.gflop on explain then counts the work saved
    params = network.init(network.ArchDescriptor(64), np.random.default_rng(9))
    board = engine.replay([3, 3, 4, 2, 5, 1, 0, 6, 2, 4])
    cells = np.array(board.occupied_cells())
    grids = np.zeros((64, 6, 7), dtype=np.float32)
    grids[:, cells[:, 0], cells[:, 1]] = np.random.default_rng(10).random((64, len(cells))) < 0.5
    distinct = {
        (y, x, grids[r, max(y - 2, 0) : y + 3, max(x - 2, 0) : x + 3].tobytes())
        for r in range(64)
        for y in range(6)
        for x in range(7)
    }
    assert len(distinct) < 64 * 42
    x_full = network.forward_boards(params, [board]).x[0]
    with spans.Tracer() as tracer:
        network.forward_masks(params, x_full, grids)
    names = span_names(tracer)
    convs = [i for i, name in enumerate(names) if name == "network.conv_forward"]
    assert len(convs) == 4
    assert {names[tracer.parent[i]] for i in convs} == {"network.forward_bn"}
    assert tracer.qty[convs[1]] == 2.0 * len(distinct) * 64 * 64 * 9
    assert tracer.qty[convs[0]] == 2.0 * 64 * 42 * 64 * 3 * 9


def test_benchmark_traces_one_search_per_search_move(spans):
    params = network.init(network.ArchDescriptor(8), np.random.default_rng(5))
    config = mcts.MCTSConfig(simulations=12)
    with spans.Tracer() as tracer:
        stats = mcts.benchmark(params, config, n_games=4, seed=6)
    names = span_names(tracer)
    searches = [i for i, name in enumerate(names) if name == "mcts.mcts_search"]
    # every applied ply is an agent move (one batch-1 forward each) or a
    # search move; an illegal agent move ends its game unapplied
    agent_plies = names.count("network.forward_b1") - stats.illegal
    assert len(searches) == names.count("engine.apply_move") - agent_plies > 0
    assert [tracer.qty[i] for i in searches] == [config.simulations] * len(searches)
