#!/usr/bin/env bash
# End-to-end tour of the command line. Everything is sized to finish in
# about a minute; bump the numbers for real experiments.
set -euo pipefail

OUT=demos/out/cli
CKPT=$OUT/checkpoint_final.ckpt
mkdir -p "$OUT"

echo "== train a small agent =="
cat > "$OUT/config.json" <<'JSON'
{"conv_channels": 8, "p_h_max": 0.5, "total_games": 200, "seed": 9}
JSON
c4xai train --config "$OUT/config.json" --out "$OUT" | tail -n 3

echo "== benchmark it against weak MCTS =="
c4xai benchmark --checkpoint "$CKPT" --simulations 50 --games 20 \
    --seed 1 --out "$OUT/bench.csv"

echo "== count optimal moves on the bundled game record =="
c4xai optimal-moves --checkpoint "$CKPT" --record tests/data/optimal_game.txt

echo "== explain a position: Shapley values and a FW mask =="
MOVES=3,3,4,2,2,4,5,1
c4xai shapley --checkpoint "$CKPT" --moves $MOVES --p 0.5 --samples 200 \
    --seed 2 --out "$OUT/shapley.csv"
c4xai shapley --checkpoint "$CKPT" --moves $MOVES --p 0.5 --exact \
    --out "$OUT/shapley_exact.csv"
c4xai fw --checkpoint "$CKPT" --moves $MOVES --k 3 --out "$OUT/fw.csv"
grep -v '^#' "$OUT/shapley.csv" | head -n 4

echo "== ground-truth histogram for two methods =="
c4xai groundtruth --checkpoint "$CKPT" --methods gradient,random --cases 8 \
    --confidence 0.0 --seed 3 --out "$OUT/gt.csv"
cat "$OUT/gt.csv"

echo "== information-performance curve vs a random opponent =="
c4xai curves --checkpoint "$CKPT" --opponent random --fractions 0,0.5,1 \
    --games 30 --seed 4 --out "$OUT/curve.csv"
cat "$OUT/curve.csv"

echo "== masker round-robin =="
c4xai tournament --checkpoint "$CKPT" --methods gradient,random,input \
    --games-per-pair 10 --seed 5 --out "$OUT/tournament.csv"
cat "$OUT/tournament.csv"

echo "done; artifacts in $OUT"
