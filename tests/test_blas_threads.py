"""Training and explanation bits that must not depend on the BLAS thread count.

Each check runs the same script in two fresh interpreters, one with
OpenBLAS/OpenMP pinned to 1 thread and one to 2 (the variables are read
when the library loads, so this cannot be switched inside one process),
and compares sha256 digests of the outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the 20-game C = 8 run of the `train` golden pin. On 2 or more CPUs the
# 1-thread run computes the conv weight gradients on backward's helper
# thread and the 2-thread run does not, so this also compares those two
# lanes.
TRAIN_SCRIPT = """
import sys, tempfile
from c4xai import network, training
cfg = training.PPOConfig(
    conv_channels=8, total_games=20, update_every=10, checkpoint_every=10, seed=3
)
with tempfile.TemporaryDirectory() as out:
    print(network.file_sha256(training.train(cfg, out).checkpoint_path))
"""

# every conv layer's weight gradient at C = 64; a single GEMM over the
# batch gave thread-dependent bits at these batch sizes
WEIGHT_GRAD_SCRIPT = """
import hashlib
import numpy as np
from c4xai import network
h = hashlib.sha256()
rng = np.random.default_rng(5)
for dtype in (np.float32, np.float64):
    in_hw = [(6, 7)] + list(network.CONV_HW[:-1])
    for c_in, pad, (hh, ww) in zip((3, 64, 64, 64), network.CONV_PADS, in_hw):
        oh, ow = hh + 2 * pad - 2, ww + 2 * pad - 2
        for n in (13, 37, 100, 181):
            d = rng.normal(size=(n, 64, oh, ow)).astype(dtype)
            x = rng.normal(size=(n, c_in, hh, ww)).astype(dtype)
            for grad in network._conv_param_backward(d, x, pad):
                h.update(grad.tobytes())
print(h.hexdigest())
"""

# every conv layer's forward at C = 64; batches whose im2col rows pass
# network._CHUNK_BYTES run one GEMM per chunk of samples. On 2 or more
# CPUs the 1-thread run takes those chunks in two lanes (the caller and
# a helper thread) and the 2-thread run in one, so this also compares
# those two paths.
FORWARD_SCRIPT = """
import hashlib
import numpy as np
from c4xai import network
h = hashlib.sha256()
rng = np.random.default_rng(9)
for dtype in (np.float32, np.float64):
    in_hw = [(6, 7)] + list(network.CONV_HW[:-1])
    for c_in, pad, (hh, ww) in zip((3, 64, 64, 64), network.CONV_PADS, in_hw):
        w = rng.normal(size=(64, c_in, 3, 3)).astype(dtype)
        b = rng.normal(size=64).astype(dtype)
        for n in (13, 37, 100, 181):
            x = rng.normal(size=(n, c_in, hh, ww)).astype(dtype)
            h.update(network.conv_forward(x, w, b, pad).tobytes())
print(h.hexdigest())
"""

# every conv layer's input gradient at C = 64
INPUT_GRAD_SCRIPT = """
import hashlib
import numpy as np
from c4xai import network
h = hashlib.sha256()
rng = np.random.default_rng(7)
for dtype in (np.float32, np.float64):
    in_hw = [(6, 7)] + list(network.CONV_HW[:-1])
    for c_in, pad, (hh, ww) in zip((3, 64, 64, 64), network.CONV_PADS, in_hw):
        oh, ow = hh + 2 * pad - 2, ww + 2 * pad - 2
        w = rng.normal(size=(64, c_in, 3, 3)).astype(dtype)
        for n in (13, 37, 100, 181):
            d = rng.normal(size=(n, 64, oh, ow)).astype(dtype)
            h.update(network.conv_input_backward(d, w, (hh, ww), pad).tobytes())
print(h.hexdigest())
"""

# partial Shapley on nu_pol at C = 64: the masked forwards share conv2
# rows, so their GEMMs have fewer rows than the blocks. On 2 or more CPUs
# the 1-thread run evaluates blocks on a helper thread too and the
# 2-thread run does not, so this also compares those two paths.
SHAPLEY_SCRIPT = """
import hashlib
import numpy as np
from c4xai import charfn, engine, network
h = hashlib.sha256()
params = network.init(network.ArchDescriptor(64), np.random.default_rng(11))
for t in (8, 26):
    rng = np.random.default_rng(t)
    board = engine.new_board()
    while board.turn < t:
        board = engine.apply_move(board, int(rng.choice(board.legal_moves())))
        if engine.outcome(board).is_terminal:
            board = engine.new_board()
    nu = charfn.nu_pol(params, board)
    res = charfn.partial_shapley(nu, 0.5, 185, np.random.default_rng(t))
    h.update(res.values.tobytes())
    h.update(repr((nu.queries, nu.hits, nu.batches)).encode())
print(h.hexdigest())
"""


def run_with_threads(script, threads):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize(
    "script",
    [TRAIN_SCRIPT, WEIGHT_GRAD_SCRIPT, FORWARD_SCRIPT, INPUT_GRAD_SCRIPT, SHAPLEY_SCRIPT],
    ids=["train", "weight_grad", "forward", "input_grad", "shapley"],
)
def test_bits_do_not_depend_on_blas_threads(script):
    one, two = run_with_threads(script, 1), run_with_threads(script, 2)
    assert len(one) == 64
    assert one == two
