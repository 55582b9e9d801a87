"""Explain one decision with every attribution method in the box.

Loads the bundled desk checkpoint (or any checkpoint you pass), builds a
mid-game position, and prints per-piece scores from sampled Shapley
values, the partial variant that stays on the training manifold, the
Frank-Wolfe mask, and two backprop methods.
"""

import argparse
from pathlib import Path

import numpy as np

from c4xai import attribution, charfn, engine, fwmask, network

DEFAULT_CKPT = Path(__file__).resolve().parents[1] / "tests" / "data" / "desk_checkpoint.ckpt"
MOVES = (3, 3, 4, 2, 2, 4, 5, 1)  # eight plies, nothing decided yet


def show_scores(title, scores):
    print(f"\n{title}")
    for (row, col), val in sorted(scores.items(), key=lambda kv: -abs(kv[1])):
        print(f"  piece at row {row}, col {col}: {val:+.4f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--checkpoint", default=str(DEFAULT_CKPT))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = network.load(args.checkpoint)
    rng = np.random.default_rng(args.seed)

    board = engine.new_board()
    for col in MOVES:
        board = engine.apply_move(board, col)
    print(engine.board_to_text(board))

    trace = network.forward_boards(params, [board])  # full information
    policy, value = trace.policy[0], trace.value[0]
    a_star = int(np.argmax(policy))
    print(f"agent plays column {a_star} "
          f"(p={policy[a_star]:.3f}, value={value:+.3f})")

    nu = charfn.nu_pol(params, board)
    n = charfn.sample_count(epsilon=0.1, delta=0.05)
    sampled = charfn.partial_shapley(nu, p=0.0, n_permutations=n, rng=rng)
    show_scores(f"sampled Shapley ({n} permutations)", sampled.as_dict())

    partial = charfn.partial_shapley(nu, p=0.5, n_permutations=n, rng=rng)
    show_scores("partial Shapley, predecessor floor p=0.5", partial.as_dict())

    result = fwmask.fw_optimize(params, board, fwmask.FWConfig(k=3.0))
    scores = fwmask.mask_piece_scores(result.mask, board)
    selected = attribution.select_top(scores, 0.5, rng)
    show_scores(f"FW mask, k=3 (final distortion {result.distortion:.2e})", scores)
    print(f"  revealed coalition at fraction 0.5: {sorted(selected)}")

    for method in ("gradient", "lrp_eps"):
        smap = attribution.saliency(method, params, board, rng)
        show_scores(method, attribution.aggregate(smap, board))


if __name__ == "__main__":
    main()
