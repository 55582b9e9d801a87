"""Ground-truth scoring, matches, tournaments, curves, and sidecars.

Scoring is pinned with synthetic cases where the right answer is forced
(an oracle scorer must hit 3/3, an anti-oracle 0/3); the match and curve
plumbing is checked for count identities, colour alternation, and
bit-exact reproducibility across reruns; lockstep series against games
played one at a time (``oracles.play_series_one_by_one``).
"""

import json
import platform
from functools import partial

import numpy as np
import pytest
from oracles import play_series_one_by_one

import c4xai
from c4xai import attribution, engine, harness, network


@pytest.fixture(scope="module")
def params():
    return network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(1))


def play(moves):
    board = engine.new_board()
    for col in moves:
        board = engine.apply_move(board, col)
    return board


def synthetic_case():
    """Position one red move from a column-3 win, ground truth known."""
    board = play([3, 0, 3, 1, 3, 6])
    cells = frozenset({(0, 3), (1, 3), (2, 3)})
    return harness.GroundTruthCase(board=board, winning_move=3, cells=cells, confidence=1.0)


# ---------------------------------------------------------------------------
# ground-truth harvesting and scoring
# ---------------------------------------------------------------------------

class TestGroundTruthScore:
    def test_oracle_scorer_hits_three_of_three(self, params):
        case = synthetic_case()

        def oracle(params_, board, rng):
            return {cell: (1.0 if cell in case.cells else 0.0) for cell in board.occupied_cells()}

        hist = harness.ground_truth_score([case] * 5, oracle, params, np.random.default_rng(0))
        assert hist.tolist() == [0, 0, 0, 5]

    def test_anti_oracle_scorer_hits_zero(self, params):
        case = synthetic_case()

        def anti(params_, board, rng):
            return {cell: (0.0 if cell in case.cells else 1.0) for cell in board.occupied_cells()}

        hist = harness.ground_truth_score([case] * 5, anti, params, np.random.default_rng(0))
        assert hist.tolist() == [5, 0, 0, 0]

    def test_random_scorer_matches_the_drawing_odds(self, params):
        # 3 of the 6 pieces are ground truth, so 3 random picks without
        # replacement hit k of them with probability C(3,k)C(3,3-k)/C(6,3)
        case = synthetic_case()
        n = 4000
        hist = harness.ground_truth_score(
            [case] * n, "random", params, np.random.default_rng(7)
        )
        assert hist.sum() == n
        expected = np.array([1, 9, 9, 1], dtype=float) / 20.0
        np.testing.assert_allclose(hist / n, expected, atol=0.03)

    def test_registered_method_names_are_accepted(self, params):
        case = synthetic_case()
        hist = harness.ground_truth_score(
            [case] * 3, "gradient", params, np.random.default_rng(0)
        )
        assert hist.sum() == 3


class TestHarvest:
    def test_harvested_cases_satisfy_their_own_definition(self, params):
        rng = np.random.default_rng(12)
        cases = harness.harvest_ground_truth(params, n_cases=3, rng=rng, confidence=0.0)
        assert len(cases) == 3
        for case in cases:
            assert not engine.outcome(case.board).is_terminal
            assert case.winning_move in case.board.legal_moves()
            final = engine.apply_move(case.board, case.winning_move)
            out = engine.outcome(final)
            expected_winner = (
                engine.RED_WINS if case.board.to_move == engine.RED else engine.BLUE_WINS
            )
            assert out.kind == expected_winner
            landing = (case.board.column_height(case.winning_move), case.winning_move)
            assert case.cells == frozenset(out.winning_cells) - {landing}
            assert len(case.cells) >= 3
            assert case.cells <= set(case.board.occupied_cells())
            assert 0.0 <= case.confidence <= 1.0

    def test_unreachable_confidence_raises_with_partial_haul(self, params):
        rng = np.random.default_rng(3)
        with pytest.raises(harness.InsufficientCases) as exc:
            harness.harvest_ground_truth(
                params, n_cases=2, rng=rng, confidence=1.0, game_cap=30
            )
        assert exc.value.collected == []

    @pytest.mark.parametrize("confidence", [float("nan"), -0.1, 1.01])
    def test_a_floor_outside_the_unit_interval_is_rejected_before_any_game(
        self, params, confidence, monkeypatch
    ):
        def play(*args, **kwargs):
            raise AssertionError("a game was played")

        monkeypatch.setattr(engine, "play", play)
        with pytest.raises(ValueError, match="confidence"):
            harness.harvest_ground_truth(
                params, n_cases=2, rng=np.random.default_rng(3), confidence=confidence
            )


# ---------------------------------------------------------------------------
# match accounting
# ---------------------------------------------------------------------------

class TestMatchResult:
    def test_scores_split_draws_evenly(self):
        r = harness.MatchResult(
            method_a="x", method_b="y", wins_a=3, wins_b=2, draws=1, n_games=6
        )
        assert r.score_a == 3.5
        assert r.score_b == 2.5
        r.verify()

    def test_verify_rejects_inconsistent_counts(self):
        r = harness.MatchResult(method_a="x", method_b="y", wins_a=3, wins_b=1, n_games=6)
        with pytest.raises(AssertionError):
            r.verify()

    def test_verify_rejects_illegal_exceeding_opponent_wins(self):
        r = harness.MatchResult(
            method_a="x", method_b="y", wins_a=4, wins_b=2, n_games=6, illegal_a=3
        )
        with pytest.raises(AssertionError):
            r.verify()


class TestPlayMatch:
    def test_counts_close_and_scores_sum_to_games(self, params):
        result = harness.play_match("random", "input", params, n_games=6, fraction=0.4, seed=5)
        assert result.wins_a + result.wins_b + result.draws == 6
        assert result.score_a + result.score_b == 6.0
        assert result.method_a == "random"
        assert result.fraction == 0.4

    def test_rerun_is_bit_exact(self, params):
        a = harness.play_match("random", "random", params, n_games=6, seed=11)
        b = harness.play_match("random", "random", params, n_games=6, seed=11)
        assert a == b

    def test_workers_accepts_only_one(self, params):
        one = harness.play_match("random", "input", params, n_games=2, seed=4, workers=1)
        assert one == harness.play_match("random", "input", params, n_games=2, seed=4)
        for workers in (0, 2):
            with pytest.raises(ValueError, match="workers must be 1"):
                harness.play_match("random", "input", params, n_games=2, workers=workers)

    @pytest.mark.parametrize("fraction", [7.0, -0.5, float("nan")])
    def test_fraction_is_checked_before_any_game(self, params, monkeypatch, fraction):
        # the input masker reveals everything and never reads its fraction
        monkeypatch.setattr(engine, "play_series", no_games)
        with pytest.raises(ValueError, match="fraction must lie in"):
            harness.play_match("input", "input", params, n_games=2, fraction=fraction)

    def test_zero_games_rejected(self, params):
        with pytest.raises(ValueError):
            harness.play_match("random", "random", params, n_games=0)

    def test_competitive_mode_runs(self, params):
        result = harness.play_match(
            "random", "random", params, n_games=2, seed=0, competitive=True
        )
        assert result.n_games == 2


class TestRoundRobin:
    def test_every_pair_plays_once_and_points_add_up(self, params):
        methods = ("random", "gradient", "input")
        rr = harness.round_robin(methods, params, n_games_per_pair=4, fraction=0.5, seed=2)
        assert len(rr.matches) == 3
        played = {frozenset((m.method_a, m.method_b)) for m in rr.matches}
        assert played == {
            frozenset(("random", "gradient")),
            frozenset(("random", "input")),
            frozenset(("gradient", "input")),
        }
        scores = rr.scores()
        assert set(scores) == set(methods)
        assert sum(scores.values()) == pytest.approx(3 * 4)

    def test_csv_round_trip(self, params, tmp_path):
        rr = harness.round_robin(("random", "input"), params, n_games_per_pair=4, seed=9)
        path = rr.to_csv(tmp_path / "rr.csv")
        lines = open(path).read().strip().splitlines()
        assert lines[0].startswith("method_a,method_b,wins_a")
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "random" and fields[1] == "input"
        assert int(fields[2]) + int(fields[3]) + int(fields[4]) == 4

    def test_single_method_rejected(self, params):
        with pytest.raises(ValueError):
            harness.round_robin(("random",), params, n_games_per_pair=2)


# ---------------------------------------------------------------------------
# information-performance curves
# ---------------------------------------------------------------------------

class TestCurves:
    def test_rows_are_complete_and_consistent(self, params):
        rows = harness.info_perf_curve(
            params, "random", "random", fractions=[0.0, 1.0], n_games=6, seed=1
        )
        assert [row["fraction"] for row in rows] == [0.0, 1.0]
        for row in rows:
            assert set(row) == set(harness.CURVE_COLUMNS)
            assert row["wins"] + row["draws"] + row["losses"] == 6
            assert row["illegal"] <= row["losses"]
            assert row["win_rate"] == row["wins"] / 6
            assert 7 <= row["mean_length"] <= 42

    def test_first_fraction_is_independent_of_later_ones(self, params):
        # seeds key on the fraction index, so a prefix re-run reproduces it
        both = harness.info_perf_curve(
            params, "random", "random", fractions=[0.3, 0.8], n_games=4, seed=6
        )
        alone = harness.info_perf_curve(
            params, "random", "random", fractions=[0.3], n_games=4, seed=6
        )
        assert alone[0] == both[0]

    @pytest.mark.parametrize("fractions", [[5.0], [0.5, float("nan")], [0.0, -0.1]])
    def test_every_fraction_is_checked_before_any_game(self, params, monkeypatch, fractions):
        monkeypatch.setattr(engine, "play_series", no_games)
        with pytest.raises(ValueError, match="fraction must lie in"):
            harness.info_perf_curve(params, "input", "random", fractions, n_games=2)

    def test_search_opponent_runs(self, params):
        rows = harness.info_perf_curve(
            params, "random", ("mcts", 20), fractions=[1.0], n_games=2, seed=0
        )
        assert rows[0]["n_games"] == 2

    def test_oracle_opponent_runs(self, params):
        rows = harness.info_perf_curve(
            params, "random", FirstLegalOracle(), fractions=[1.0], n_games=2, seed=0
        )
        assert rows[0]["wins"] + rows[0]["draws"] + rows[0]["losses"] == 2

    def test_unknown_opponent_rejected(self, params):
        with pytest.raises(ValueError):
            harness.info_perf_curve(
                params, "random", "tournament-bot", fractions=[0.5], n_games=2
            )

    def test_csv_dump_matches_rows(self, params, tmp_path):
        rows = harness.info_perf_curve(
            params, "random", "random", fractions=[0.25, 0.75], n_games=4, seed=2
        )
        path = harness.curve_to_csv(rows, tmp_path / "curve.csv")
        lines = open(path).read().strip().splitlines()
        assert lines[0] == ",".join(harness.CURVE_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.25
        assert int(first[2]) == rows[0]["wins"]


class FirstLegalOracle:
    def best_move(self, board):
        return board.legal_moves()[0], None


def no_games(*args, **kwargs):
    raise AssertionError("a game started")


# ---------------------------------------------------------------------------
# lockstep series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "opponent", ["random", ("mcts", 10), FirstLegalOracle()], ids=["random", "mcts10", "oracle"]
)
def test_series_plays_each_game_as_it_would_alone(params, opponent):
    make_opponent = partial(harness._opponent_mover, opponent, params)
    seeds = np.random.SeedSequence(21).spawn(7)
    games = engine.play_series(harness.random_mover, make_opponent, seeds)
    assert games == play_series_one_by_one(harness.random_mover, make_opponent, seeds)
    # the games leave the lockstep at different plies
    assert len({length for _, _, length in games}) > 1


def test_a_network_free_game_does_not_depend_on_the_game_count(params):
    make_opponent = partial(harness._opponent_mover, ("mcts", 10), params)
    long = engine.play_series(
        harness.random_mover, make_opponent, np.random.SeedSequence(22).spawn(9)
    )
    for n in (1, 4):
        short = engine.play_series(
            harness.random_mover, make_opponent, np.random.SeedSequence(22).spawn(n)
        )
        assert long[:n] == short


def test_play_vs_random_counts_and_determinism(params):
    a = harness.play_vs_random(params, n_games=10, seed=4)
    b = harness.play_vs_random(params, n_games=10, seed=4)
    assert a.wins + a.draws + a.losses + a.illegal == 10
    assert (a.wins, a.draws, a.losses, a.illegal) == (b.wins, b.draws, b.losses, b.illegal)


# ---------------------------------------------------------------------------
# sidecar metadata
# ---------------------------------------------------------------------------

class TestSidecar:
    def test_records_command_seed_and_hashes(self, params, tmp_path):
        ckpt = tmp_path / "net.ckpt"
        network.save(params, ckpt)
        csv_path = tmp_path / "out.csv"
        csv_path.write_text("fraction,win_rate\n")
        side = harness.write_sidecar(
            csv_path,
            command=["c4xai", "curves", "--seed", "7"],
            seed=7,
            checkpoint_path=ckpt,
            config_obj={"fractions": [0.5], "n_games": 4},
        )
        assert side.endswith("out.csv.meta.json")
        meta = json.loads(open(side).read())
        assert meta["command"][1] == "curves"
        assert meta["seed"] == 7
        assert meta["checkpoint_sha256"] == network.file_sha256(ckpt)
        assert len(meta["config_sha256"]) == 64

    def test_records_versions_and_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("GOTO_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        csv_path = tmp_path / "out.csv"
        csv_path.write_text("x\n")
        meta = json.loads(open(harness.write_sidecar(csv_path, ["c4xai"], seed=None)).read())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert meta["c4xai_version"] == c4xai.__version__
        assert meta["python_version"] == platform.python_version()
        assert meta["numpy_version"] == np.__version__
        assert (meta["blas_name"], meta["blas_version"]) == (blas["name"], blas["version"])
        threads = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        assert [meta[name] for name in threads] == ["1", "2", None]

    def test_absent_inputs_hash_to_null(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        csv_path.write_text("x\n")
        side = harness.write_sidecar(csv_path, command=["c4xai"], seed=None)
        meta = json.loads(open(side).read())
        assert meta["checkpoint_sha256"] is None
        assert meta["config_sha256"] is None
        assert meta["seed"] is None
        assert meta["wall_time_s"] is None
