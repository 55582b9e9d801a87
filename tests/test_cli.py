"""End-to-end runs of every subcommand through cli.main.

Each test drives the real argument parser and checks the exit code, the
files left on disk, and the sidecar metadata. Work sizes are kept tiny;
the statistical behaviour of the underlying routines is covered by the
per-module tests.
"""

import csv
import importlib
import inspect
import json
import math
import pkgutil
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import find
from hypothesis import strategies as st

import c4xai
from c4xai import charfn, cli, engine, harness, mcts, network, training

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
    params = network.init(network.ArchDescriptor(conv_channels=8), np.random.default_rng(8))
    network.save(params, path)
    return str(path)


def read_sidecar(out_path):
    return json.loads(Path(str(out_path) + ".meta.json").read_text())


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_train_writes_run_artifacts(tmp_path, capsys):
    cfg = tmp_path / "ppo.json"
    cfg.write_text(
        json.dumps(
            {
                "conv_channels": 8,
                "total_games": 6,
                "update_every": 3,
                "checkpoint_every": 0,
                "seed": 5,
            }
        )
    )
    run_dir = tmp_path / "run"
    code = cli.main(["train", "--config", str(cfg), "--out", str(run_dir)])
    assert code == 0
    assert (run_dir / "checkpoint_final.ckpt").exists()
    log = run_dir / "training_log.csv"
    assert log.exists()
    meta = read_sidecar(log)
    assert meta["command"][0] == "c4xai"
    assert meta["config_sha256"] is not None
    assert meta["seed"] == 5  # from the config: the command line names no seed
    out = capsys.readouterr().out
    assert "checkpoint:" in out


def test_train_sidecar_records_the_default_seed(tmp_path):
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--games", "2", "--out", str(run_dir)]) == 0
    assert read_sidecar(run_dir / "training_log.csv")["seed"] == 0


def test_train_prints_one_line_per_update(tmp_path, capsys):
    cfg = tmp_path / "ppo.json"
    cfg.write_text(
        json.dumps(
            {
                "conv_channels": 8,
                "total_games": 20,
                "update_every": 10,
                "checkpoint_every": 0,
                "seed": 2,
            }
        )
    )
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("games=10 mean_return=")
    assert lines[1].startswith("games=20 mean_return=")
    assert "illegal_rate=" in lines[1]
    assert lines[2].startswith("checkpoint: ")
    assert lines[3].startswith("log: ")


@pytest.mark.parametrize("text", ["null", '"str"', '{"seed": "x"}', '{"update_every": 1.5}'])
def test_mistyped_train_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "ppo.json"
    cfg.write_text(text)
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", ['{"gamma": Infinity}', '{"learning_rate": NaN}'])
def test_non_finite_train_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "ppo.json"
    cfg.write_text(text)
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text", ['{"checkpoint_every": -1}', '{"conv_channels": 0}', '{"seed": -1}']
)
def test_out_of_range_train_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "ppo.json"
    cfg.write_text(text)
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_diverged_training_exits_2(tmp_path, capsys, monkeypatch):
    def diverge(config, out_dir, progress=None):
        raise training.NonFiniteLoss("loss diverged at epoch 0")

    monkeypatch.setattr(training, "train", diverge)
    code = cli.main(["train", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "loss diverged" in capsys.readouterr().err


def test_train_game_override_beats_the_config(tmp_path):
    cfg = tmp_path / "ppo.json"
    cfg.write_text(json.dumps({"conv_channels": 8, "total_games": 50, "update_every": 2}))
    run_dir = tmp_path / "run"
    code = cli.main(
        ["train", "--config", str(cfg), "--out", str(run_dir), "--games", "4", "--seed", "1"]
    )
    assert code == 0
    final = network.load(run_dir / "checkpoint_final.ckpt")
    assert final.meta["games"] == 4
    assert final.meta["seed"] == 1


def test_benchmark_writes_csv_and_sidecar(tmp_path, checkpoint, capsys):
    out = tmp_path / "bench.csv"
    code = cli.main(
        [
            "benchmark", "--checkpoint", checkpoint, "--games", "2",
            "--simulations", "10", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "wins,draws,losses,illegal,n_games,win_rate"
    assert int(lines[1].split(",")[4]) == 2
    meta = read_sidecar(out)
    assert meta["checkpoint_sha256"] == network.file_sha256(checkpoint)
    assert meta["seed"] == 3
    assert "win_rate=" in capsys.readouterr().out


def test_optimal_moves_reports_agreement(checkpoint, capsys):
    code = cli.main(
        ["optimal-moves", "--checkpoint", checkpoint, "--record", str(DATA / "optimal_game.txt")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "/41" in out


def test_shapley_sampled_partial_and_exact(tmp_path, checkpoint):
    out = tmp_path / "shap.csv"
    base = ["shapley", "--checkpoint", checkpoint, "--moves", "3,3,4", "--out", str(out)]
    assert cli.main(base + ["--samples", "40"]) == 0
    assert out.exists() and read_sidecar(out)["seed"] == 0
    meta = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
    assert "# n_samples=40" in meta  # an explicit n claims no accuracy
    assert "# epsilon=null" in meta and "# delta=null" in meta

    assert cli.main(base + ["--samples", "40", "--p", "0.5"]) == 0
    assert cli.main(base + ["--exact"]) == 0
    rows = [
        ln for ln in out.read_text().strip().splitlines() if not ln.startswith("#")
    ]
    assert rows[0] == "row,col,phi"
    assert len(rows) == 4  # header plus one row per placed piece


def test_shapley_defaults_to_the_hoeffding_budget(tmp_path, checkpoint):
    out = tmp_path / "shap.csv"
    argv = ["shapley", "--checkpoint", checkpoint, "--moves", "3,3,4", "--out", str(out)]
    assert cli.main(argv) == 0
    meta = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
    assert "# n_samples=1060" in meta
    assert "# epsilon=0.05" in meta and "# delta=0.01" in meta


def test_shapley_at_minus_zero_samples_as_at_zero(tmp_path, checkpoint):
    # the same draws, values and form; the CSV records the p it was given
    base = ["shapley", "--checkpoint", checkpoint, "--moves", "3,3,4,2", "--samples", "30"]
    zero, minus = tmp_path / "zero.csv", tmp_path / "minus.csv"
    assert cli.main(base + ["--p", "0", "--out", str(zero)]) == 0
    assert cli.main(base + ["--p", "-0.0", "--out", str(minus)]) == 0
    assert minus.read_text() == zero.read_text().replace("# p=0.0", "# p=-0.0")


def shapley_csv_values(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    return [float(row[2]) for row in rows[1:]]


def test_exact_shapley_honours_p(tmp_path, checkpoint):
    moves = "3,3,4,2,2,4,5,1"
    out = tmp_path / "exact.csv"
    argv = ["shapley", "--checkpoint", checkpoint, "--moves", moves, "--exact", "--out", str(out)]
    assert cli.main(argv + ["--p", "0.5"]) == 0
    assert "# p=0.5" in out.read_text().splitlines()
    params, board = network.load(checkpoint), engine.replay([int(c) for c in moves.split(",")])
    want = charfn.exact_shapley(charfn.nu_pol(params, board), 0.5).values.tolist()
    assert shapley_csv_values(out) == want
    assert cli.main(argv) == 0
    full = charfn.exact_shapley(charfn.nu_pol(params, board)).values.tolist()
    assert shapley_csv_values(out) == full != want


@pytest.mark.parametrize("p", ["1.5", "1.0"])  # outside [0, 1]; an empty permutation class
def test_exact_shapley_without_admissible_positions_exits_2(tmp_path, checkpoint, capsys, p):
    out = tmp_path / "exact.csv"
    argv = ["shapley", "--checkpoint", checkpoint, "--moves", "3,3,4", "--exact", "--p", p]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_sidecars_record_wall_time(tmp_path, checkpoint):
    out = tmp_path / "mask.csv"
    argv = ["fw", "--checkpoint", checkpoint, "--moves", "3,3,4", "--iterations", "2"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    wall = read_sidecar(out)["wall_time_s"]
    assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0


def test_shapley_zero_samples_exits_2(tmp_path, checkpoint, capsys):
    out = tmp_path / "shap.csv"
    code = cli.main(
        [
            "shapley", "--checkpoint", checkpoint, "--moves", "3,3,4",
            "--samples", "0", "--out", str(out),
        ]
    )
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def _fails_to_parse(text):
    try:
        engine.board_from_text(text)
    except (ValueError, engine.EngineError):
        return True
    return False


def test_shapley_on_an_unparsable_board_file_exits_2(tmp_path, checkpoint, capsys):
    grids = st.lists(
        st.text(alphabet=".rb?", min_size=7, max_size=7), min_size=6, max_size=6
    ).map("\n".join)
    board = tmp_path / "board.txt"
    board.write_text(find(grids, _fails_to_parse))
    out = tmp_path / "phi.csv"
    code = cli.main(
        ["shapley", "--checkpoint", checkpoint, "--board", str(board), "--out", str(out)]
    )
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_fw_mask_csv(tmp_path, checkpoint, capsys):
    out = tmp_path / "mask.csv"
    code = cli.main(
        [
            "fw", "--checkpoint", checkpoint, "--moves", "3,3,4,2,1",
            "--k", "2", "--iterations", "8", "--out", str(out),
        ]
    )
    assert code == 0
    rows = [
        ln for ln in out.read_text().strip().splitlines() if not ln.startswith("#")
    ]
    assert rows[0] == "row,col,mask"
    assert len(rows) == 43  # header + 42 cells
    assert "distortion:" in capsys.readouterr().out


def test_saliency_dump_tensor_method(tmp_path, checkpoint):
    out = tmp_path / "sal.csv"
    code = cli.main(
        [
            "saliency-dump", "--checkpoint", checkpoint, "--moves", "3,3,4",
            "--method", "gradient", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 6 * 7

    board_out = tmp_path / "sal2.csv"
    board_file = tmp_path / "pos.txt"
    board_file.write_text(".......\n.......\n.......\n.......\n...b...\n..rr...\n")
    code = cli.main(
        [
            "saliency-dump", "--checkpoint", checkpoint, "--board", str(board_file),
            "--method", "gradient", "--out", str(board_out),
        ]
    )
    assert code == 0


def test_saliency_dump_piece_method(tmp_path, checkpoint):
    out = tmp_path / "shap_scores.csv"
    code = cli.main(
        [
            "saliency-dump", "--checkpoint", checkpoint, "--moves", "3,3,4",
            "--method", "shapley", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,row,col,value"
    assert len(lines) == 4  # three pieces on the board


def test_groundtruth_histograms(tmp_path, checkpoint):
    out = tmp_path / "gt.csv"
    code = cli.main(
        [
            "groundtruth", "--checkpoint", checkpoint, "--cases", "2",
            "--confidence", "0.0", "--methods", "random,input",
            "--seed", "12", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,hits0,hits1,hits2,hits3,n_cases"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert sum(int(v) for v in fields[1:5]) == int(fields[5]) == 2


def test_hand_rolled_csvs_go_through_the_csv_writer(tmp_path, checkpoint):
    # benchmark, groundtruth and both saliency-dump branches: csv.writer's
    # \r\n line ends, one width per file, and a number in the last column
    runs = {
        "bench.csv": ["benchmark", "--games", "2", "--simulations", "10"],
        "gt.csv": ["groundtruth", "--cases", "1", "--confidence", "0.0", "--methods", "random"],
        "pieces.csv": ["saliency-dump", "--moves", "3,3,4", "--method", "shapley"],
        "map.csv": ["saliency-dump", "--moves", "3,3,4", "--method", "gradient"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert cli.main(argv + ["--checkpoint", checkpoint, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), name
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2 and {len(row) for row in rows} == {len(rows[0])}, name
        for row in rows[1:]:
            float(row[-1])


def test_curves_against_random(tmp_path, checkpoint, capsys):
    out = tmp_path / "curve.csv"
    code = cli.main(
        [
            "curves", "--checkpoint", checkpoint, "--selector", "random",
            "--opponent", "random", "--fractions", "0,1", "--games", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert "win_rate=" in capsys.readouterr().out
    meta = read_sidecar(out)
    assert meta["command"][1] == "curves"


def test_curves_against_search(tmp_path, checkpoint):
    out = tmp_path / "curve_mcts.csv"
    code = cli.main(
        [
            "curves", "--checkpoint", checkpoint, "--opponent", "mcts:10",
            "--fractions", "1.0", "--games", "2", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists()


def test_tournament_csv(tmp_path, checkpoint, capsys):
    out = tmp_path / "tour.csv"
    code = cli.main(
        [
            "tournament", "--checkpoint", checkpoint, "--methods", "random,input",
            "--games-per-pair", "2", "--out", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 2
    assert "random" in capsys.readouterr().out


def test_curves_takes_no_workers_option(tmp_path, checkpoint, capsys):
    out = tmp_path / "curve.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(
            [
                "curves", "--checkpoint", checkpoint, "--fractions", "1", "--games", "2",
                "--workers", "2", "--out", str(out),
            ]
        )
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("......\n" + ".......\n" * 5, "row 0 has 6 characters, expected 7"),
        (".......\n" * 5 + "...x...\n", "bad character 'x' at row 5, col 3"),
    ],
)
def test_a_misshapen_board_file_exits_2(tmp_path, checkpoint, capsys, grid, message):
    with pytest.raises(ValueError, match=message):
        engine.text_to_cells(grid)
    board = tmp_path / "board.txt"
    board.write_text(grid)
    out = tmp_path / "phi.csv"
    argv = ["shapley", "--checkpoint", checkpoint, "--board", str(board), "--out", str(out)]
    assert cli.main(argv + ["--samples", "5"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_a_tournament_fraction_outside_the_unit_interval_exits_2(tmp_path, checkpoint, capsys):
    # harness.play_match rejects it before the first game
    out = tmp_path / "rr.csv"
    argv = ["tournament", "--checkpoint", checkpoint, "--methods", "gradient,random"]
    assert cli.main(argv + ["--games-per-pair", "1", "--fraction", "1.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "fraction must lie in [0, 1], got 1.5" in err and "Traceback" not in err
    assert not out.exists()

# ---------------------------------------------------------------------------
# failure paths and exit codes
# ---------------------------------------------------------------------------

def test_missing_checkpoint_file_exits_2(tmp_path, capsys):
    code = cli.main(
        ["benchmark", "--checkpoint", str(tmp_path / "absent.ckpt"), "--games", "1"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"this is not a checkpoint")
    code = cli.main(["benchmark", "--checkpoint", str(bad), "--games", "1"])
    assert code == 2


def test_malformed_checkpoint_header_exits_2_without_traceback(tmp_path, capsys):
    import hashlib
    import struct

    # checksum-valid file whose JSON header is an empty object
    body = network.CHECKPOINT_MAGIC + struct.pack("<II", network.CHECKPOINT_VERSION, 2) + b"{}"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(body + hashlib.sha256(body).digest())
    code = cli.main(["benchmark", "--checkpoint", str(bad), "--games", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unreachable_board_file_exits_2(tmp_path, checkpoint, capsys):
    board_file = tmp_path / "bad_pos.txt"
    # a stone floating above an empty cell violates gravity
    board_file.write_text(".......\n.......\n.......\n...r...\n.......\n.......\n")
    code = cli.main(
        ["shapley", "--checkpoint", checkpoint, "--board", str(board_file), "--samples", "5"]
    )
    assert code == 2


def test_missing_board_arguments_exit_2(checkpoint, capsys):
    code = cli.main(["shapley", "--checkpoint", checkpoint, "--samples", "5"])
    assert code == 2
    assert "provide --board" in capsys.readouterr().err


def test_wrong_length_record_exits_2(tmp_path, checkpoint):
    rec = tmp_path / "short.txt"
    rec.write_text("3 3 4\n")
    code = cli.main(["optimal-moves", "--checkpoint", checkpoint, "--record", str(rec)])
    assert code == 2


def test_unknown_opponent_exits_2(checkpoint, capsys):
    code = cli.main(
        ["curves", "--checkpoint", checkpoint, "--opponent", "grandmaster", "--games", "2"]
    )
    assert code == 2


@pytest.mark.parametrize("games", ["0", "-2"])
def test_curves_without_games_exits_2(tmp_path, checkpoint, capsys, games):
    out = tmp_path / "curve.csv"
    code = cli.main(
        [
            "curves", "--checkpoint", checkpoint, "--games", games,
            "--fractions", "1", "--out", str(out),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


@pytest.mark.parametrize("fractions", ["5", "0.5,nan", "1,-0.5"])
def test_a_curve_fraction_outside_the_unit_interval_exits_2(
    tmp_path, checkpoint, capsys, monkeypatch, fractions
):
    def no_games(*args, **kwargs):
        raise AssertionError("a game started")

    monkeypatch.setattr(engine, "play_series", no_games)
    out = tmp_path / "curve.csv"
    code = cli.main(
        [
            "curves", "--checkpoint", checkpoint, "--selector", "input", "--games", "2",
            "--fractions", fractions, "--out", str(out),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "fraction must lie in [0, 1]" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


def test_exact_shapley_on_a_large_board_exits_2(tmp_path, checkpoint):
    moves = ",".join(str(c) for c in [0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5])
    code = cli.main(
        ["shapley", "--checkpoint", checkpoint, "--moves", moves, "--exact"]
    )
    assert code == 2  # thirteen pieces is past the exact enumeration cap


def test_unknown_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["conquer"])
    assert exc.value.code == 2


def test_unknown_method_is_an_argparse_error(checkpoint, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["saliency-dump", "--checkpoint", checkpoint, "--moves", "3", "--method", "psychic"]
        )
    assert exc.value.code == 2


FINISHED = "3,4,3,4,3,4,3"  # red wins down column 3

# expected exit code and argv; {ckpt}, {dir} and {out} are filled in per run
MALFORMED = {
    "unknown tournament method": (2, "tournament --methods foo,random --games-per-pair 1"),
    "unknown curve selector": (2, "curves --selector foo --fractions 1 --games 1"),
    "unknown groundtruth method": (2, "groundtruth --methods foo --cases 1 --confidence 0"),
    "fw on a finished game": (2, f"fw --moves {FINISHED}"),
    "fw scores on a finished game": (2, f"saliency-dump --method fw --moves {FINISHED}"),
    "directory as checkpoint": (2, "benchmark --checkpoint {dir} --games 1"),
    "directory as board": (2, "shapley --board {dir} --samples 5"),
    "directory as config": (2, "train --config {dir}"),
    "directory as out": (2, "fw --moves 3 --iterations 1 --out {dir}"),
    "empty oracle command": (3, "curves --opponent oracle: --fractions 1 --games 1"),
    "repeated tournament method": (2, "tournament --methods random,random --games-per-pair 1"),
    "no groundtruth cases": (2, "groundtruth --methods random --cases 0 --confidence 0"),
    "negative groundtruth cases": (2, "groundtruth --methods random --cases -1 --confidence 0"),
    "negative shapley p": (2, "shapley --moves 3 --p -0.5 --samples 5"),
    "nan fw budget": (2, "fw --moves 3 --k nan --iterations 1"),
    "infinite fw budget": (2, "fw --moves 3 --k inf --iterations 1"),
    "fw fraction above one": (2, "saliency-dump --method fw --fraction 2 --moves 3"),
    "negative shapley fraction": (2, "saliency-dump --method shapley --fraction -1 --moves 3"),
    "gradient fraction above one": (2, "saliency-dump --method gradient --fraction 5 --moves 3"),
    "nan random fraction": (2, "saliency-dump --method random --fraction nan --moves 3"),
    "groundtruth fraction above one": (
        2,
        "groundtruth --methods random --fraction 5 --cases 1 --confidence 0",
    ),
    "saliency on a finished game": (2, f"saliency-dump --method gradient --moves {FINISHED}"),
    # checked before any game: unchecked, a floor no case meets plays the whole game cap
    "nan groundtruth confidence": (2, "groundtruth --methods random --cases 1 --confidence nan"),
    "groundtruth confidence above one": (2, "groundtruth --methods random --confidence 1.5"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_invocation_exits_without_traceback(tmp_path, checkpoint, capsys, case):
    code, line = MALFORMED[case]
    if "--checkpoint" not in line and not line.startswith("train"):
        line += " --checkpoint {ckpt}"
    if "--out" not in line:
        line += " --out {out}"
    argv = line.format(ckpt=checkpoint, dir=tmp_path, out=tmp_path / "out").split()
    assert cli.main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, name",
    [
        ("groundtruth --methods gradeint --cases 5 --confidence 0.99", "gradeint"),
        ("tournament --methods gradient,input,nosuch --games-per-pair 100", "nosuch"),
        ("curves --selector nosuch --fractions 1 --games 1", "nosuch"),
    ],
    ids=["groundtruth", "tournament", "curves"],
)
def test_an_unknown_masker_exits_2_before_any_game(
    tmp_path, checkpoint, capsys, monkeypatch, line, name
):
    def no_games(*args, **kwargs):
        raise AssertionError("a game started")

    monkeypatch.setattr(engine, "play_lockstep", no_games)
    argv = line.split() + ["--checkpoint", checkpoint, "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {name!r}; maskers: " in err and "Traceback" not in err


@pytest.mark.parametrize("fraction", ["5", "nan", "-0.5"])
def test_groundtruth_checks_the_fraction_before_harvesting(checkpoint, monkeypatch, fraction):
    def harvest(*args, **kwargs):
        raise AssertionError("harvested before the fraction was checked")

    monkeypatch.setattr(harness, "harvest_ground_truth", harvest)
    argv = ["groundtruth", "--checkpoint", checkpoint, "--methods", "random", "--fraction", fraction]
    assert cli.main(argv) == 2


# ---------------------------------------------------------------------------
# external oracle wiring
# ---------------------------------------------------------------------------

ORACLE_OK = textwrap.dedent(
    """
    import sys
    for line in sys.stdin:
        line = line.strip()
        if not line.startswith("POS "):
            continue
        rows = line[4:].split("/")
        legal = [i for i, ch in enumerate(rows[0]) if ch == "."]
        sys.stdout.write("MOVE %d\\n" % legal[0])
        sys.stdout.flush()
    """
).strip()

ORACLE_BROKEN = 'import sys\nsys.stdin.readline()\nprint("NO IDEA")\nsys.stdout.flush()\n'
ORACLE_MALFORMED = (
    'import sys\nsys.stdin.readline()\nprint("MOVE 2 SCORE 1.5")\nsys.stdout.flush()\n'
)
ORACLE_LONG_SCORE = (  # past int()'s 4,300-digit limit
    'import sys\nsys.stdin.readline()\nprint("MOVE 2 SCORE " + "9" * 5000)\nsys.stdout.flush()\n'
)


def test_curves_against_external_oracle(tmp_path, checkpoint):
    script = tmp_path / "oracle_ok.py"
    script.write_text(ORACLE_OK + "\n")
    out = tmp_path / "curve_oracle.csv"
    code = cli.main(
        [
            "curves", "--checkpoint", checkpoint,
            "--opponent", f"oracle:{sys.executable} {script}",
            "--fractions", "1.0", "--games", "2", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists()


def test_broken_external_oracle_exits_3(tmp_path, checkpoint, capsys):
    script = tmp_path / "oracle_broken.py"
    script.write_text(ORACLE_BROKEN)
    code = cli.main(
        [
            "curves", "--checkpoint", checkpoint,
            "--opponent", f"oracle:{sys.executable} {script}",
            "--fractions", "1.0", "--games", "2",
        ]
    )
    assert code == 3
    assert "oracle error:" in capsys.readouterr().err


def test_malformed_oracle_reply_exits_3_without_traceback(tmp_path, checkpoint, capsys):
    script = tmp_path / "oracle_malformed.py"
    script.write_text(ORACLE_MALFORMED)
    code = cli.main(
        [
            "curves", "--checkpoint", checkpoint,
            "--opponent", f"oracle:{sys.executable} {script}",
            "--fractions", "1.0", "--games", "2",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "oracle error:" in captured.err and "non-integer score" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_oracle_score_past_the_int_digit_limit_exits_3(tmp_path, checkpoint, capsys):
    script = tmp_path / "oracle_long_score.py"
    script.write_text(ORACLE_LONG_SCORE)
    code = cli.main(
        [
            "curves", "--checkpoint", checkpoint,
            "--opponent", f"oracle:{sys.executable} {script}",
            "--fractions", "1.0", "--games", "2",
            "--out", str(tmp_path / "curve.csv"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "oracle error:" in captured.err and "score too long" in captured.err
    assert "Traceback" not in captured.err + captured.out


def c4xai_exception_classes():
    """Every exception class defined in a c4xai module."""
    classes = []
    for info in pkgutil.iter_modules(c4xai.__path__):
        module = importlib.import_module(f"c4xai.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, Exception):
                classes.append(cls)
    return classes


@pytest.mark.parametrize(
    "exc", c4xai_exception_classes(), ids=lambda cls: f"{cls.__module__}.{cls.__name__}"
)
def test_every_c4xai_exception_exits_2_or_3_without_traceback(monkeypatch, capsys, exc):
    def fail(args):
        raise exc("injected failure")

    monkeypatch.setattr(cli, "cmd_optimal_moves", fail)
    code = cli.main(["optimal-moves", "--checkpoint", "net.ckpt", "--record", "game.txt"])
    assert code == (3 if issubclass(exc, mcts.OracleError) else 2)
    err = capsys.readouterr().err
    assert "injected failure" in err and "Traceback" not in err


def test_every_c4xai_exception_derives_from_the_package_error():
    assert [cls for cls in c4xai_exception_classes() if not issubclass(cls, c4xai.Error)] == []
