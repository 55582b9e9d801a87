"""Command line front end.

Every data-producing subcommand writes CSV plus a ``.meta.json`` sidecar
recording the command line, seed, content hashes of the checkpoint
and config that produced it, and the subcommand's wall time.

Exit codes: 0 success, 2 bad configuration or arguments, 3 oracle
subprocess failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import attribution, charfn, engine, fwmask, harness, mcts, network, training
from .csvio import write_csv


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--checkpoint", required=True, help="network checkpoint file")
    p.add_argument("--out", default=None, help="output file or directory")


def _load_board(args) -> engine.BoardState:
    if getattr(args, "board", None):
        text = Path(args.board).read_text()
        return engine.board_from_text(text)
    if getattr(args, "moves", None):
        cols = [int(c) for c in args.moves.replace(",", " ").split()]
        return engine.replay(cols)
    raise training.ConfigError("provide --board FILE or --moves COLUMNS")


def _board_args(p):
    p.add_argument("--board", default=None, help="board position as a text file")
    p.add_argument("--moves", default=None, help="move list, e.g. '3,3,4,2'")


def _sidecar(args, out_path, config_obj=None):
    harness.write_sidecar(
        out_path,
        command=["c4xai"] + args._argv,
        seed=args.seed,
        checkpoint_path=getattr(args, "checkpoint", None),
        config_obj=config_obj,
        wall_time_s=time.perf_counter() - args._started,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    if args.config:
        config = training.PPOConfig.from_json(args.config)
    else:
        config = training.PPOConfig()
    overrides = {}
    if args.games is not None:
        overrides["total_games"] = args.games
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = training.PPOConfig(**{**config.__dict__, **overrides})
    out_dir = args.out or "runs/train"
    result = training.train(config, out_dir, progress=_print_update)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    _sidecar(args, result.log_path, config_obj=config.__dict__)
    return 0


def _print_update(game, row) -> None:
    """Training progress: one line per PPO update, none between updates."""
    if row is not None and row["games"] == game:
        print(
            f"games={game} mean_return={row['mean_return']:.4f} "
            f"illegal_rate={row['illegal_rate']:.3f}"
        )


def cmd_benchmark(args) -> int:
    params = network.load(args.checkpoint)
    config = mcts.MCTSConfig(simulations=args.simulations)
    stats = mcts.benchmark(params, config, args.games, seed=args.seed)
    print(
        f"games={stats.n_games} wins={stats.wins} draws={stats.draws} "
        f"losses={stats.losses} illegal={stats.illegal} win_rate={stats.win_rate:.3f}"
    )
    if args.out:
        write_csv(
            args.out,
            ["wins", "draws", "losses", "illegal", "n_games", "win_rate"],
            [[stats.wins, stats.draws, stats.losses, stats.illegal, stats.n_games, stats.win_rate]],
        )
        _sidecar(args, args.out)
    return 0


def cmd_optimal_moves(args) -> int:
    lines = Path(args.record).read_text().splitlines()
    body = " ".join(ln for ln in lines if not ln.lstrip().startswith("#"))
    columns = [int(c) for c in body.replace(",", " ").split()]
    count = mcts.count_optimal_moves(network.load(args.checkpoint), columns)
    print(f"optimal moves: {count}/41")
    return 0


def cmd_shapley(args) -> int:
    params = network.load(args.checkpoint)
    board = _load_board(args)
    rng = np.random.default_rng(args.seed)
    nu = charfn.nu_pol(params, board) if args.head == "pol" else charfn.nu_val(params, board)
    if args.exact:
        result = charfn.exact_shapley(nu, args.p)
    else:
        eps = delta = None  # an explicit n carries no accuracy target
        n = args.samples
        if n is None:
            eps, delta = args.epsilon, args.delta
            n = charfn.sample_count(eps, delta)
        result = charfn.partial_shapley(nu, args.p, n, rng, epsilon=eps, delta=delta)
    out = args.out or "shapley.csv"
    result.to_csv(out)
    _sidecar(args, out)
    for (row, col), phi in zip(result.features, result.values):
        print(f"({row},{col}): {phi:+.6f}")
    print(f"wrote {out}")
    return 0


def cmd_fw(args) -> int:
    params = network.load(args.checkpoint)
    board = _load_board(args)
    config = fwmask.FWConfig(
        k=args.k, iterations=args.iterations, step_rule=args.step_rule
    )
    result = fwmask.fw_optimize(params, board, config)
    out = args.out or "fw_mask.csv"
    fwmask.result_to_csv(result, out)
    _sidecar(args, out)
    print(f"distortion: {result.distortion:.6g} after {len(result.trace)} iterations")
    print(f"wrote {out}")
    return 0


def cmd_saliency_dump(args) -> int:
    # map methods ignore the fraction, but a bad value is still bad input
    attribution.check_fraction(args.fraction)
    params = network.load(args.checkpoint)
    board = _load_board(args)
    rng = np.random.default_rng(args.seed)
    out = args.out or f"saliency_{args.method}.csv"
    try:
        smap = attribution.saliency(args.method, params, board, rng)
    except attribution.UnknownMethod:
        # piece-level methods (shapley, fw) have no full tensor map
        scores = attribution.piece_scores(args.method, params, board, rng, fraction=args.fraction)
        rows = [[args.method, row, col, repr(float(v))] for (row, col), v in sorted(scores.items())]
        write_csv(out, ["method", "row", "col", "value"], rows)
    else:
        attribution.dump_csv([smap], out)
    _sidecar(args, out)
    print(f"wrote {out}")
    return 0


def cmd_groundtruth(args) -> int:
    # before harvesting, which can play thousands of games
    attribution.check_fraction(args.fraction)
    params = network.load(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    cases = harness.harvest_ground_truth(params, args.cases, rng, confidence=args.confidence)
    methods = args.methods.split(",") if args.methods else list(attribution.method_names())
    out = args.out or "groundtruth.csv"
    rows = []
    for method in methods:
        hist = harness.ground_truth_score(cases, method, params, rng, fraction=args.fraction)
        rows.append([method, *hist.tolist(), len(cases)])
        print(f"{method:16s} hits: {hist.tolist()}")
    write_csv(out, ["method", "hits0", "hits1", "hits2", "hits3", "n_cases"], rows)
    _sidecar(args, out)
    print(f"wrote {out}")
    return 0


def cmd_curves(args) -> int:
    params = network.load(args.checkpoint)
    oracle = None
    if args.opponent == "self" or args.opponent == "random":
        opponent = args.opponent
    elif args.opponent.startswith("mcts:"):
        opponent = ("mcts", int(args.opponent.split(":", 1)[1]))
    elif args.opponent.startswith("oracle:"):
        oracle = mcts.ExternalOracle(args.opponent.split(":", 1)[1].split())
        opponent = oracle
    else:
        raise training.ConfigError(f"unknown opponent {args.opponent!r}")
    fractions = [float(f) for f in args.fractions.split(",")]
    try:
        rows = harness.info_perf_curve(
            params, args.selector, opponent, fractions, args.games, seed=args.seed
        )
    finally:
        if oracle is not None:
            oracle.close()
    out = args.out or "curve.csv"
    harness.curve_to_csv(rows, out)
    _sidecar(args, out)
    for row in rows:
        print(
            f"fraction={row['fraction']:.2f} win_rate={row['win_rate']:.3f} "
            f"mean_length={row['mean_length']:.1f}"
        )
    print(f"wrote {out}")
    return 0


def cmd_tournament(args) -> int:
    params = network.load(args.checkpoint)
    methods = args.methods.split(",") if args.methods else list(attribution.method_names())
    result = harness.round_robin(
        methods, params, args.games_per_pair, fraction=args.fraction, seed=args.seed
    )
    out = args.out or "tournament.csv"
    result.to_csv(out)
    _sidecar(args, out)
    for method, score in sorted(result.scores().items(), key=lambda kv: -kv[1]):
        print(f"{method:16s} {score:8.1f}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="c4xai", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="PPO self-play training")
    p.add_argument("--config", default=None, help="PPO config as JSON")
    p.add_argument("--games", type=int, default=None, help="override game count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="play the agent against MCTS")
    _add_common(p)
    p.add_argument("--simulations", type=int, default=200)
    p.add_argument("--games", type=int, default=100)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser(
        "optimal-moves", help="count reference-game moves the agent reproduces"
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--record", required=True, help="file with 41 columns")
    p.set_defaults(func=cmd_optimal_moves)

    p = sub.add_parser("shapley", help="Shapley values of board pieces")
    _add_common(p)
    _board_args(p)
    p.add_argument("--head", choices=("pol", "val"), default="pol")
    p.add_argument("--p", type=float, default=0.0, help="predecessor fraction floor")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--samples", type=int, default=None, help="override sample count")
    p.add_argument(
        "--exact",
        action="store_true",
        help=f"exact values from every coalition of size >= ceil(p*t); "
        f"at most {charfn.EXACT_LIMIT} pieces",
    )
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("fw", help="rate-distortion mask by Frank-Wolfe")
    _add_common(p)
    _board_args(p)
    p.add_argument("--k", type=float, default=3.0, help="mask L1 budget")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--step-rule", choices=("agnostic", "line_search"), default="agnostic")
    p.set_defaults(func=cmd_fw)

    p = sub.add_parser("saliency-dump", help="per-cell saliency scores as CSV")
    _add_common(p)
    _board_args(p)
    p.add_argument("--method", required=True, choices=sorted(attribution.method_names()))
    p.add_argument("--fraction", type=float, default=0.5)
    p.set_defaults(func=cmd_saliency_dump)

    p = sub.add_parser("groundtruth", help="top-3 hit histograms on winning lines")
    _add_common(p)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--confidence", type=float, default=0.9)
    p.add_argument("--methods", default=None, help="comma list, default all")
    p.add_argument("--fraction", type=float, default=0.5)
    p.set_defaults(func=cmd_groundtruth)

    p = sub.add_parser("curves", help="win rate against revealed fraction")
    _add_common(p)
    p.add_argument("--selector", default="random")
    p.add_argument(
        "--opponent",
        default="self",
        help="'self', 'random', 'mcts:SIMS', or 'oracle:COMMAND LINE'",
    )
    p.add_argument("--fractions", default="0,0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--games", type=int, default=100)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("tournament", help="round robin between maskers")
    _add_common(p)
    p.add_argument("--methods", default=None, help="comma list, default all")
    p.add_argument("--games-per-pair", type=int, default=100)
    p.add_argument("--fraction", type=float, default=0.5)
    p.set_defaults(func=cmd_tournament)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    args._started = time.perf_counter()  # the sidecars' wall_time_s
    try:
        return args.func(args)
    except mcts.OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 3
    except (
        training.TrainingError,
        network.NetworkError,
        engine.EngineError,
        charfn.CharFnError,
        attribution.AttributionError,
        fwmask.FWError,
        mcts.IllegalRecord,
        harness.HarnessError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
