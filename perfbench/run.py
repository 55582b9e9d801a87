"""Benchmark of the c4xai workbench: train, explain and play workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explain --seed 1 --seconds 20 --trace 0

The benchmark imports c4xai from the checkout's ``src`` directory and
fails (exit code 2, no result line) when it is not there. It sets up the
workload several times (set-up time is the median), then runs rounds of
the workload (see workloads.py) until ``--seconds`` have passed. Every
call's output is checked. Timings are divided by the host factor of
host.py, so they read as on an unloaded host. The report lines name
every metric with its unit and sample count; the last line of standard
output is one JSON object with the metrics that BENCHMARK.json declares.

``--trace 0`` reports the end-to-end metrics. With ``--trace 1`` every
round runs untraced and then again with the trace points of spans.py
installed; the run checks that both passes produced the same output
digests and that the original functions are back in place, and reports
the per-layer metrics, each module's share of self time and the tracing
overhead.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # fixed for steadiness; never more than nproc
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "explain", "play"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Import numpy and c4xai with BLAS pinned to BLAS_THREADS threads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import c4xai
    except ImportError as exc:
        raise BenchError(f"cannot import c4xai from {src}: {exc}") from exc
    if Path(c4xai.__file__).resolve().parent.parent != src.resolve():
        raise BenchError(f"c4xai was imported from {c4xai.__file__}, not from {src}")


def load_declared():
    """Metric names and units from BENCHMARK.json, checked against the
    catalogue in metrics.json."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        catalogue = json.loads((HERE / "metrics.json").read_text())
        declared = {}
        for section in ("end_to_end", "per_layer"):
            declared[section] = {m["name"]: m["unit"] for m in bench[section]}
            listed = {name: entry["unit"] for name, entry in catalogue[section].items()}
            if listed != declared[section]:
                raise BenchError(f"BENCHMARK.json and metrics.json disagree on {section}")
        declared["report"] = {name: entry["unit"] for name, entry in catalogue["report"].items()}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the metric declarations: {exc}") from exc
    return declared


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def p90(values):
    """90th percentile, or None below P90_MIN_SAMPLES samples."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def ratio(num, den):
    return num / den if den else 0.0


# the unit of work a round's time is divided by, per workload
WORK_UNIT = {"train": "transitions", "explain": "boards", "play": "plies"}


def report_metrics(workload, rounds):
    """The workload's end-to-end figures by name: {name: (value, samples)}.
    ``setup_s`` and ``peak_rss_mb`` are added by the caller."""
    busy = sum(r.seconds for r in rounds)
    unit = WORK_UNIT[workload]
    done = [r for r in rounds if r.shape.get(unit)]
    per_unit = [r.seconds * 1e3 / r.shape[unit] for r in done]
    out = {
        "work_ms_p50": (median(per_unit), len(per_unit)),
        "work_per_s": (ratio(sum(r.shape[unit] for r in done), busy), len(done)),
    }
    attempted = sum(r.attempted for r in rounds)
    out["fail_frac"] = (ratio(sum(r.failed for r in rounds), attempted), attempted)
    out["host_factor"] = (median([r.host_factor for r in rounds]), len(rounds))

    def times(kind, scale=1.0, per=1):
        return [t * scale / per for r in rounds for t in r.kind_seconds(kind)]

    def shape_sum(key):
        return sum(r.shape.get(key, 0) for r in rounds)

    if workload == "train":
        out["train.games_per_s"] = (ratio(shape_sum("games"), busy), len(rounds))
        out["train.plies_per_s"] = (ratio(shape_sum("transitions"), busy), len(rounds))
    elif workload == "explain":
        for name, kind, scale in (
            ("explain.shapley_s", "shapley", 1.0),
            ("explain.fw_s", "fw", 1.0),
            ("explain.fw_ls_s", "fw_ls", 1.0),
            ("explain.saliency_ms", "saliency", 1e3),
        ):
            vals = times(kind, scale)
            out[f"{name}_p50"] = (median(vals), len(vals))
            if name == "explain.saliency_ms":
                out[f"{name}_p90"] = (p90(vals), len(vals))
    else:
        from workloads import MCTS_GAMES_PER_CALL

        out["play.plies_per_s"] = (ratio(shape_sum("plies"), busy), len(rounds))
        for name, vals in (
            ("play.match_game_ms", times("match_game", 1e3)),
            ("play.mcts_game_ms", times("mcts_call", 1e3, MCTS_GAMES_PER_CALL)),
        ):
            out[f"{name}_p50"] = (median(vals), len(vals))
            out[f"{name}_p90"] = (p90(vals), len(vals))
    return out


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def git_commit(root):
    """The checked-out commit, read from .git without running git; None
    outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "c4xai").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "harness_workers": 1,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(run_round, ctx, seconds, tracer=None, on_op=None):
    """Rounds 0, 1, ... until ``seconds`` have passed (at least one).
    With a tracer, every round runs untraced and then again traced, so
    both passes of a round see the same machine conditions."""
    rounds, traced = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        index = len(rounds)
        rounds.append(run_round(ctx, index).finish())
        if tracer is not None:
            with tracer:
                traced.append(run_round(ctx, index, on_op).finish())
    return rounds, traced


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_shape(workload, rounds, hit_by_board=None):
    for i, r in enumerate(rounds):
        shape = dict(r.shape)
        if workload == "train" and shape:
            shape["transitions_per_game"] = shape["transitions"] / shape["games"]
            shape["illegal_share"] = shape["illegal_games"] / shape["games"]
        elif workload == "play" and shape.get("games"):
            shape["plies_per_game"] = shape["plies"] / shape["games"]
            shape["illegal_share"] = shape["illegal_games"] / shape["games"]
        elif workload == "explain" and hit_by_board is not None:
            shape["hit_ratio"] = [round(h, 6) for h in hit_by_board[2 * i : 2 * i + 2]]
        print(f"shape round={i} {json.dumps(shape, sort_keys=True)}")
        print(f"time round={i} raw_s={r.raw_seconds:.6f} host_factor={r.host_factor:.6f}")


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
        declared = load_declared()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads
    from host import REFERENCE_NOMINAL_S, HostClock

    import_s = time.perf_counter() - _T_START
    setup, run_round = workloads.WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_host = HostClock()
        setup_host.sample(force=True)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = setup(args.seed, work_dir)
            setup_times.append(time.perf_counter() - t0)
            setup_host.sample(force=True)
        setup_factor = sum(setup_host.samples) / len(setup_host.samples) / REFERENCE_NOMINAL_S
        setup_s = (import_s + statistics.median(setup_times)) / setup_factor

        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print(f"record {json.dumps(run_record(args), sort_keys=True)}")
        print(
            f"setup import_s={import_s:.6f} repeats_s={json.dumps([round(t, 6) for t in setup_times])}"
            f" host_factor={setup_factor:.6f}"
        )
        tracer = spans.Tracer() if args.trace else None
        op_kinds = []

        def on_op(kind):
            op_kinds.append(kind)
            tracer.op_id = len(op_kinds) - 1

        rounds, traced = measure(run_round, ctx, args.seconds, tracer, on_op)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures = report_metrics(args.workload, rounds)
        figures["setup_s"] = (setup_s, SETUP_REPEATS)
        figures["peak_rss_mb"] = (peak_rss_mb, 1)
        attempted = sum(r.attempted for r in rounds + traced)
        failed = sum(r.failed for r in rounds + traced)
        correct = failed == 0

        for name, (value, n) in sorted(figures.items()):
            unit = declared["end_to_end"].get(name) or declared["report"].get(name)
            print(f"metric {name} = {fmt(value)} {unit} (n={n})")

        if not args.trace:
            metrics = {name: figures[name] for name in declared["end_to_end"] if name in figures}
            print_shape(args.workload, rounds)
        else:
            restored = spans.originals_restored()
            digests = [r.digest.hexdigest() for r in rounds]
            traced_digests = [r.digest.hexdigest() for r in traced]
            neutral = digests == traced_digests and [r.shape for r in rounds] == [
                r.shape for r in traced
            ]
            print(f"check tracing_neutral={neutral} originals_restored={restored}")
            correct = correct and neutral and restored

            busy_traced = sum(r.seconds for r in traced)
            busy = sum(r.seconds for r in rounds)
            host_traced = ratio(sum(r.raw_seconds for r in traced), busy_traced)
            layer, hit_by_op = spans.layer_metrics(tracer, len(traced), busy_traced, host_traced)
            layer["trace.overhead"] = 100.0 * (ratio(busy_traced, busy) - 1.0)
            traced_figures = report_metrics(args.workload, traced)
            for name, (value, _) in sorted(traced_figures.items()):
                base = figures[name][0]
                if value is not None and base is not None:
                    print(f"overhead {name} traced={fmt(value)} untraced={fmt(base)} diff={fmt(value - base)}")
            shares = {mod: layer[f"{mod}.self_share"] for mod in spans.MODULES}
            print(f"share self_time_pct {json.dumps(shares, sort_keys=True)} other={fmt(100 - sum(shares.values()))}")
            hit_by_board = [hit_by_op.get(op) for op, kind in enumerate(op_kinds) if kind == "shapley"]
            print_shape(args.workload, traced, hit_by_board)
            spans_total = len(tracer.start)
            print(f"spans recorded={spans_total} rounds={len(traced)}")
            metrics = {name: (value, len(traced)) for name, value in layer.items()}
            for name, (value, _) in sorted(metrics.items()):
                print(f"layer {name} = {fmt(value)} {declared['per_layer'].get(name)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    mode = "per_layer" if args.trace else "end_to_end"
    if set(metrics) != set(declared[mode]):
        print(f"perfbench: computed {mode} metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared[mode]))}", file=sys.stderr)
        return 3
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": declared[mode][name]}
            for name, (value, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
