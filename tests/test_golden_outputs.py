"""Pinned seeded outputs of everything that plays Connect Four games.

Every item below is produced from fixed seeds on a small untrained
network and compared against a value recorded once. Reruns of the same
code already agree with themselves (the per-module tests check that);
these pins catch a refactor that changes the random stream, the tally
rules or the bytes of a written file. Digests are sha256 over a
canonical text or byte rendering of the output.
"""

import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from c4xai import attribution, charfn, cli, engine, fwmask, harness, mcts, network, training


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_sha(path) -> str:
    with open(path, "rb") as fh:
        return sha(fh.read())


def transitions_digest(transitions) -> str:
    h = hashlib.sha256()
    for tr in transitions:
        h.update(np.ascontiguousarray(tr.state).tobytes())
        h.update(repr((tr.action, tr.prob, tr.value, tr.reward, tr.done, tr.ret, tr.player)).encode())
    return h.hexdigest()


def episodes(params, seed, n=6):
    config = training.PPOConfig(conv_channels=8, p_h_max=0.5)
    rng = np.random.default_rng(seed)
    out = [training.self_play_episode(params, config, rng) for _ in range(n)]
    return (transitions_digest([tr for ep in out for tr in ep]), [len(ep) for ep in out])


class FirstLegalOracle:
    """A move oracle that always names the leftmost open column."""

    def best_move(self, board):
        return board.legal_moves()[0], None


def _outputs(tmp_path) -> dict:
    params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(3))
    out = {}

    out["self_play_f32"] = episodes(params, 11)
    out["self_play_f64"] = episodes(params.astype(np.float64), 12)

    cfg = training.PPOConfig(
        conv_channels=8, total_games=20, update_every=10, checkpoint_every=10, seed=3
    )
    res = training.train(cfg, tmp_path / "train")
    out["train"] = (
        file_sha(res.checkpoint_path),
        file_sha(tmp_path / "train" / "checkpoint_g10.ckpt"),
        file_sha(res.log_path),
    )

    cases = harness.harvest_ground_truth(
        params, n_cases=3, rng=np.random.default_rng(12), confidence=0.0
    )
    out["harvest"] = sha(
        repr(
            [
                (c.board.history, c.winning_move, sorted(c.cells), c.confidence)
                for c in cases
            ]
        )
    )

    out["match_sampling"] = astuple(
        harness.play_match("gradient", "random", params, 6, fraction=0.5, seed=5)
    )
    out["match_competitive"] = astuple(
        harness.play_match("input", "lrp_eps", params, 4, seed=6, competitive=True)
    )

    rr = harness.round_robin(("random", "gradient", "input"), params, 2, seed=2)
    out["round_robin_csv"] = file_sha(rr.to_csv(tmp_path / "rr.csv"))

    for name, opponent in (
        ("self", "self"),
        ("random", "random"),
        ("mcts", ("mcts", 10)),
        ("oracle", FirstLegalOracle()),
    ):
        rows = harness.info_perf_curve(
            params, "random", opponent, fractions=[0.0, 0.5, 1.0], n_games=3, seed=7
        )
        out[f"curve_{name}"] = sha(repr(rows))
    out["curve_csv"] = file_sha(harness.curve_to_csv(rows, tmp_path / "curve.csv"))

    stats = harness.play_vs_random(params, 6, seed=4)
    out["play_vs_random"] = (stats.wins, stats.draws, stats.losses, stats.illegal, stats.n_games)
    stats = mcts.benchmark(params, mcts.MCTSConfig(simulations=10), 4, seed=6)
    out["benchmark"] = astuple(stats)

    board = engine.replay([3, 3, 4, 2, 2, 4, 5, 1])
    phi = charfn.partial_shapley(
        charfn.nu_pol(params, board), 0.5, 20, np.random.default_rng(9), epsilon=0.2, delta=0.1
    )
    out["shapley_csv"] = file_sha(phi.to_csv(tmp_path / "phi.csv", extra_meta={"board": "b1"}))
    ckpt = network.save(params, tmp_path / "golden.ckpt")
    cli_csv = tmp_path / "cli_phi.csv"
    argv = ["shapley", "--checkpoint", ckpt, "--moves", "3,3,4,2,2,4,5,1", "--seed", "9"]
    assert cli.main(argv + ["--p", "0", "--samples", "20", "--out", str(cli_csv)]) == 0
    out["shapley_cli_p0_csv"] = file_sha(cli_csv)
    fw = fwmask.fw_optimize(params, board, fwmask.FWConfig(k=3, iterations=10))
    out["fw_csv"] = file_sha(
        fwmask.result_to_csv(fw, tmp_path / "fw.csv", extra_meta={"board": "b1"})
    )
    cfg = fwmask.FWConfig(k=3, iterations=50, step_rule="line_search")
    fw = fwmask.fw_optimize(params, board, cfg)
    out["fw_ls_csv"] = file_sha(
        fwmask.result_to_csv(fw, tmp_path / "fw_ls.csv", extra_meta={"board": "b1"})
    )

    masker_opts = {"fw": {"iterations": 5}, "shapley": {"n": 10}}
    rendered = []
    for moves in ((3, 3, 4, 2, 2, 4, 5, 1), (3, 2, 3, 4, 4, 5, 1, 0, 6, 2, 2, 5, 0, 6)):
        position = engine.replay(moves)
        for method in attribution.method_names():
            opts = masker_opts.get(method)
            scores = attribution.piece_scores(
                method, params, position, np.random.default_rng(13), 0.5, opts
            )
            coalition = attribution.select_features(
                method, params, position, 0.5, np.random.default_rng(14), opts
            )
            rendered.append((method, sorted(scores.items()), sorted(coalition)))
    out["maskers"] = sha(repr(rendered))
    return out


GOLDEN = {
    "benchmark": (1, 0, 0, 3, 4, (3153149895, 4186225163, 103425314, 3709245926)),
    "curve_csv": "0b7a9358afb10b232818eb102f149395a06192d386c5986b920ca767f132ac8e",
    # re-recorded when MCTS rollouts began drawing one rng.random block per
    # rollout, which changed the search's random stream; the four games of
    # the "benchmark" pin end as before
    "curve_mcts": "1c667f0bad7f738ada888f06728394bd646ba6c973544accfb3073537f307d18",
    "curve_oracle": "41a5b68de5674c25a2094aa8b0d79c769a96253a3a9ed1e19a79723b8c1e5230",
    "curve_random": "a3b77d756779ee492c78274448ff9428340d4ffbe73ca259c3295b4e5b96e5ce",
    "curve_self": "5e3e20988a96e743ba483a11141788314d31766e1b634f51cab572934c6a4218",
    "fw_csv": "0b72e144933513bd57bb69378bb91403ead2360e6f3057d9cf4f9386affda802",
    "fw_ls_csv": "0e9e80fedd3f8908fb60d8dc2a458804c5d0e7995b445b5b03a5cf1f9b1c8933",
    "harvest": "164e93406c67d47b16d4330a99ebd95a8c7e007c00df30a105d5986043e001f9",
    # re-recorded when smoothgrad's n noisy copies became one batched forward and backward
    "maskers": "4d979ec931aeeffe356066cd664c8135a90d02c9b50fed710b28c9f8b18a056a",
    "match_competitive": ("input", "lrp_eps", 2, 2, 0, 2, 2, 4, 0.5, 6),
    "match_sampling": ("gradient", "random", 2, 4, 0, 1, 0, 6, 0.5, 5),
    "play_vs_random": (4, 0, 0, 2, 6),
    "round_robin_csv": "faeb69c6c49064ff36bdcba1817160b1d1fb1a4d2558bdc2ddcd4c695fc7c2ea",
    "self_play_f32": (
        "010436b285f0248c6241b8e5fc4f8bc7f87063fb010bb7a2c68ca60880c21505",
        [21, 23, 21, 13, 21, 20],
    ),
    "self_play_f64": (
        "3afd719e45c1093d85be1018a491923478cf7f6fe965732c8685f3eb1db47867",
        [19, 1, 9, 1, 1, 17],
    ),
    # re-recorded when partial_shapley lost its conditional option and the
    # "# conditional=false" metadata line; the value rows are byte-identical
    "shapley_csv": "7087994fdc3ded060e4cca5771f676a01acb31112f9fc5a9c87fa89e170affec",
    # the CSV of `c4xai shapley --p 0` on a checkpoint of these params
    "shapley_cli_p0_csv": "368d8d524e585420543de3564c64dced2b892c9ceebbe62d6ee3164def4320ee",
    "train": (
        "fd414ab7ce750e555025c1b8e7abe412c1cc247b0d3cad3a5c9ca3ddfcf1bf14",
        "ed3cd828e10d8f5f6f84de92cbfd2e80b027167926152b6d7f64a5cd135b1fca",
        "8cdd11de7f03f1c109e4ab699011b872a408be8b9a9b48920c2f359df0ed7855",
    ),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_output_is_pinned(outputs, name):
    assert outputs[name] == GOLDEN[name]


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(GOLDEN)
