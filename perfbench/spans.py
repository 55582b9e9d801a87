"""In-memory span tracer for calls into the c4xai modules.

While a ``Tracer`` is installed it replaces selected public functions of
the c4xai modules (and ``CharacteristicFn.eval_mask``) with wrappers
that record one span per call, and ``restore`` puts the original
objects back. Callers inside c4xai reach these functions through module
attribute lookups, so nested calls are traced too.

Each span records name, start, end, parent span and op id (the timed
benchmark operation it belongs to), plus one optional quantity taken
from the arguments or the result (batch rows, FLOPs, simulations,
transitions). Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from c4xai import attribution, charfn, engine, fwmask, harness, mcts, network, training

MODULES = ("engine", "network", "training", "charfn", "fwmask", "attribution", "harness", "mcts")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _forward_rows(args, kwargs):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    return 1 if x.ndim == 3 else int(x.shape[0])


def _conv_forward_flop(args, kwargs):
    """2 * N * OH * OW * C_out * C_in * 9 for a 3x3 stride-1 conv."""
    x, w, pad = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w"), _arg(args, kwargs, 3, "pad")
    n, c_in, h, wd = x.shape
    return 2.0 * n * (h + 2 * pad - 2) * (wd + 2 * pad - 2) * w.shape[0] * c_in * 9


def _conv_input_backward_flop(args, kwargs):
    """The transposed-conv GEMM: 2 * N * OH * OW * C_out * C_in * 9."""
    dout, w = _arg(args, kwargs, 0, "dout"), _arg(args, kwargs, 1, "w")
    n, c_out, oh, ow = dout.shape
    return 2.0 * n * oh * ow * c_out * w.shape[1] * 9


def _forward_name(args, kwargs):
    return "network.forward_b1" if _forward_rows(args, kwargs) == 1 else "network.forward_bn"


def _backward_name(args, kwargs):
    wants = kwargs.get("want_param_grads", True)
    return "network.backward_params" if wants else "network.backward_input"


# (owner, attribute, module, span name or name function, quantity before
# the call from the arguments, quantity after the call from the result)
TRACE_POINTS = (
    (engine, "outcome", "engine", "engine.outcome", None, None),
    (engine, "encode", "engine", "engine.encode", None, None),
    (engine, "apply_move", "engine", "engine.apply_move", None, None),
    (network, "forward", "network", _forward_name, _forward_rows, None),
    (network, "backward", "network", _backward_name, None, None),
    (network, "conv_forward", "network", "network.conv_forward", _conv_forward_flop, None),
    (
        network,
        "conv_input_backward",
        "network",
        "network.conv_input_backward",
        _conv_input_backward_flop,
        None,
    ),
    (training, "train", "training", "training.train", None, None),
    (training, "self_play_episode", "training", "training.self_play_episode", None, len),
    (
        training,
        "ppo_update",
        "training",
        "training.ppo_update",
        lambda a, k: len(_arg(a, k, 1, "batch")),
        None,
    ),
    (training, "adam_step", "training", "training.adam_step", None, None),
    (charfn, "nu_pol", "charfn", "charfn.nu_pol", None, None),
    (charfn.CharacteristicFn, "eval_mask", "charfn", "charfn.eval_mask", None, None),
    (charfn, "partial_shapley", "charfn", "charfn.partial_shapley", None, None),
    (
        fwmask,
        "fw_optimize",
        "fwmask",
        "fwmask.fw_optimize",
        lambda a, k: _arg(a, k, 2, "config").iterations,
        None,
    ),
    (fwmask, "lmo_ksparse", "fwmask", "fwmask.lmo_ksparse", None, None),
    (attribution, "saliency", "attribution", "attribution.saliency", None, None),
    (attribution, "select_features", "attribution", "attribution.select_features", None, None),
    (attribution, "select_top", "attribution", "attribution.select_top", None, None),
    (harness, "play_match", "harness", "harness.play_match", None, None),
    (
        mcts,
        "mcts_search",
        "mcts",
        "mcts.mcts_search",
        lambda a, k: _arg(a, k, 1, "config").simulations,
        None,
    ),
    (mcts, "benchmark", "mcts", "mcts.benchmark", None, None),
)


class Tracer:
    """Records spans for the TRACE_POINTS while installed.

    Single-threaded by design: the benchmark runs every workload in one
    process with harness workers = 1, so one parent stack suffices.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.qty = array("d")
        self.errors = dict.fromkeys(MODULES, 0)
        self.op_id = -1
        self._stack = [-1]
        self._originals = []

    def _id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, module, name, qty_before, qty_after):
        fixed_id = self._id(name) if isinstance(name, str) else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else self._id(name(args, kwargs))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.qty.append(qty_before(args, kwargs) if qty_before else 0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if qty_after is not None:
                self.qty[idx] = qty_after(result)
            return result

        return traced

    def install(self):
        for owner, attr, module, name, qty_before, qty_after in TRACE_POINTS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, module, name, qty_before, qty_after))
        return self

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def arrays(self):
        """Spans as numpy arrays: name id, duration, self time, parent,
        op id, quantity."""
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.array(self.name_id, dtype=np.int64),
            "dur": dur,
            "self": dur - child_time,
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "qty": np.array(self.qty, dtype=np.float64),
        }


_ORIGINALS = tuple((owner, attr, owner.__dict__[attr]) for owner, attr, *_ in TRACE_POINTS)


def originals_restored() -> bool:
    """True when every trace point holds the object it held when this
    module was imported."""
    return all(owner.__dict__[attr] is original for owner, attr, original in _ORIGINALS)


class CallCounter:
    """Count-only probe on one function: adds ``measure(result)`` to
    ``total`` per call. It records no time, so the untraced run can
    count plies and transitions that no public return value carries."""

    def __init__(self, owner, attr, measure):
        self.owner, self.attr, self.measure = owner, attr, measure
        self.total = 0

    def __enter__(self):
        self._original = fn = self.owner.__dict__[self.attr]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.total += self.measure(result)
            return result

        setattr(self.owner, self.attr, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._original)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer, n_rounds, busy_s, host_factor):
    """Per-layer metrics of the traced rounds, per round where the unit
    says so, plus each module's share of the timed ``busy_s`` in percent.
    Span times are divided by ``host_factor`` (see host.py), as the
    round times are. Also returns the charfn cache hit ratio by op id."""
    a = tracer.arrays()
    a["dur"] /= host_factor
    a["self"] /= host_factor
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(*names):
        mask = np.zeros(len(a["name"]), dtype=bool)
        for name in names:
            if name in ids:
                mask |= a["name"] == ids[name]
        return mask

    def per_round(x):
        return float(x) / n_rounds

    def children_of(parent_mask, child_mask):
        """Number of ``child_mask`` spans whose parent is in ``parent_mask``."""
        parents = a["parent"][child_mask]
        return int(parent_mask[parents[parents >= 0]].sum())

    m = {}
    for name in ("engine.outcome", "engine.encode", "charfn.eval_mask", "mcts.mcts_search"):
        m[f"{name}.calls"] = per_round(sel(name).sum())
    self_names = (
        "engine.outcome", "engine.encode", "engine.apply_move",
        "network.forward_b1", "network.forward_bn",
        "network.backward_params", "network.backward_input",
        "network.conv_forward", "network.conv_input_backward",
        "training.adam_step", "charfn.eval_mask", "charfn.partial_shapley",
        "fwmask.fw_optimize", "fwmask.lmo_ksparse",
        "attribution.select_features", "attribution.select_top",
        "harness.play_match", "mcts.mcts_search", "mcts.benchmark",
    )  # fmt: skip
    for name in self_names:
        m[f"{name}.self_s"] = per_round(a["self"][sel(name)].sum())
    for name in ("training.self_play_episode", "training.ppo_update", "attribution.saliency"):
        m[f"{name}.s"] = per_round(a["dur"][sel(name)].sum())

    fwd = sel("network.forward_b1", "network.forward_bn")
    m["network.forward.calls"] = per_round(fwd.sum())
    m["network.forward.rows"] = per_round(a["qty"][fwd].sum())
    for name in ("network.conv_forward", "network.conv_input_backward"):
        s = sel(name)
        flop = a["qty"][s].sum()
        m[f"{name}.gflop"] = per_round(flop / 1e9)
        m[f"{name}.gflops"] = _ratio(flop / 1e9, a["dur"][s].sum())

    ppo = sel("training.ppo_update")
    m["training.ppo_update.rows"] = per_round(a["qty"][ppo].sum())
    episodes = sel("training.self_play_episode")
    m["training.kept_ply_ratio"] = _ratio(a["qty"][episodes].sum(), children_of(episodes, fwd))

    evals = sel("charfn.eval_mask")
    encodes = sel("engine.encode")
    missed = np.zeros(len(evals), dtype=bool)
    enc_parents = a["parent"][encodes]
    missed[enc_parents[enc_parents >= 0]] = True
    m["charfn.eval_mask.hit_ratio"] = _ratio((evals & ~missed).sum(), evals.sum())

    fw = sel("fwmask.fw_optimize")
    m["fwmask.forwards_per_iter"] = _ratio(children_of(fw, fwd), a["qty"][fw].sum())

    search = sel("mcts.mcts_search")
    m["mcts.sims_per_s"] = _ratio(a["qty"][search].sum(), a["dur"][search].sum())

    module_of = np.array([MODULES.index(n.split(".")[0]) for n in tracer.names], dtype=np.int64)
    module_self = np.bincount(module_of[a["name"]], weights=a["self"], minlength=len(MODULES))
    for i, module in enumerate(MODULES):
        m[f"{module}.errors"] = float(tracer.errors[module])
        m[f"{module}.self_share"] = 100.0 * _ratio(module_self[i], busy_s)
    hit_by_op = {}
    for op in np.unique(a["op"][evals]):
        in_op = evals & (a["op"] == op)
        hit_by_op[int(op)] = _ratio((in_op & ~missed).sum(), in_op.sum())
    return m, hit_by_op
