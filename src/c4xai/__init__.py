"""Connect Four explainability workbench.

Trains policy/value agents by PPO self-play under a hidden-colour
curriculum, exposes their outputs as cooperative-game characteristic
functions, and compares attribution methods (Shapley sampling,
Frank-Wolfe masks, backprop saliency) through ground-truth checks and
masker tournaments.
"""

__version__ = "0.1.0"


class Error(Exception):
    """Base of every c4xai error; the CLI exits 2 on one, 3 on an oracle failure."""


from . import attribution, charfn, engine, fwmask, harness, mcts, network, training

__all__ = [
    "Error",
    "attribution",
    "charfn",
    "engine",
    "fwmask",
    "harness",
    "mcts",
    "network",
    "training",
]
