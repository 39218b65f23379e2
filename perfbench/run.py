"""Benchmark runner for sadp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout: it imports sadp from the
checkout's src/ and exits with code 2, printing no result, when that is
missing.  One run

1. generates the workload's inputs from --seed with the library's own
   generators (an SPKT file, and for analyze the initial weights);
2. repeats the workload as one closed batch job per fresh Python process
   (perfbench/child.py) until --seconds have passed, at least MIN_REPS times;
3. checks every repetition's outputs and their digest;
4. prints a record line (environment, seeds, digest, per-repetition figures)
   and then, as the last line, {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics from untraced repetitions.  --trace 1
alternates untraced and traced repetitions and reports the per-layer metrics,
including trace_overhead_s, the traced minus the untraced median run_s.
An operation is one epoch for training and one command for analyze; a failed
output check fails every operation it covers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import zipfile
from dataclasses import dataclass, field
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One BLAS/OpenMP thread: steadier timings on a small shared machine, and
# never more than nproc.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_REPS = 3
DEADLINE_S = 150.0  # no repetition may start that could end past this

CLASSES, TIME_STEPS, DIM, NOISE = 10, 8, 64, 0.2


@dataclass(frozen=True)
class Workload:
    command: str            # "train" or "analyze"
    arch: str
    image: bool             # inputs reshaped to 8x8 images for conv layers
    config: dict = field(default_factory=dict)


WORKLOADS = {
    # The paper's headline configuration; the only workload that runs the
    # whole selection pipeline (ratio ramp, solver, floor, draw, reweighting).
    "train-dense-prune": Workload("train", "dense:256,dense:10", False, {
        "train.epochs": 10, "train.batch": 32, "prune.enabled": "true",
        "prune.ratio": 0.7, "prune.score": "spike_aware"}),
    # Bound by the Python time loop and im2col/col2im; pruning off.  At the
    # default threshold of 1.0 this net never spikes at its output (loss stays
    # at ln 10, accuracy at chance), so it runs at 0.5 where it learns.
    "train-conv-full": Workload("train", "conv:8x3x3p1,conv:8x3x3,dense:10", True, {
        "train.epochs": 1, "train.batch": 32, "neuron.threshold": 0.5}),
    # One batch of N through sadp.oracle: per-example gradients kept for N
    # examples across three passes, at the initial weights.
    "analyze-dense": Workload("analyze", "dense:256,dense:10", False, {
        "score.layers": "all", "prune.ratio": 0.7}),
}

END_TO_END = {"setup_s": "s", "run_s": "s", "examples_per_s": "1/s",
              "peak_rss_mb": "MB", "score_norm_pearson": "ratio"}

LAYER_STATS = (
    "snn.forward.calls", "snn.forward.self_s",
    "snn.backward_bptt.calls", "snn.backward_bptt.self_s",
    "snn.weight_grads.self_s",
    "snn.im2col.calls", "snn.im2col.s", "snn.col2im.calls", "snn.col2im.s",
    "pruning.spike_aware_score.calls", "pruning.spike_aware_score.s",
    "pruning.smooth_probabilities.s",
    "pruning.solve_probabilities.calls", "pruning.solve_probabilities.s",
    "pruning.sample_mask.s", "pruning.loss_weights.s",
    "training.run_training.self_s", "training.sgd_step.calls",
    "training.sgd_step.s", "training.evaluate.calls", "training.evaluate.s",
    "oracle.per_example_gradients.calls", "oracle.per_example_gradients.s",
    "oracle.exact_grad_norms.self_s", "oracle.measure_correlations.self_s",
    "oracle.variance_formula.s",
    "data.read_spike_file.s", "data.write_metrics.s", "cli.load_dataset.s",
    "cli.build_network.s", "cli.save_weights.s", "cli.load_weights.s",
)
COUNTERS = {"snn.per_example_grad_bytes": "B", "pruning.solver_iters": "count",
            "pruning.fallbacks": "count", "pruning.kept_fraction": "fraction",
            "training.test_acc": "fraction", "trace_overhead_s": "s"}


def layer_unit(name: str) -> str:
    if name in COUNTERS:
        return COUNTERS[name]
    return "count" if name.endswith(".calls") else "s"


def seeds_for(seed: int) -> dict:
    # seed.init/sample/shuffle follow the CLI defaults (0, 1, 2) at seed 0.
    # The data gets its own stream so that class prototypes are not drawn
    # from the same generator state as the initial weights.
    return {"seed.init": seed, "seed.sample": seed + 1,
            "seed.shuffle": seed + 2, "data": seed + 3}


def fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_sadp():
    if not os.path.isfile(os.path.join(ROOT, "src", "sadp", "__init__.py")):
        fail(f"no sadp sources under {os.path.join(ROOT, 'src')}; run from a "
             "source checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sadp
    if not os.path.abspath(sadp.__file__).startswith(os.path.join(ROOT, "src")):
        fail(f"imported sadp from {sadp.__file__}, not from this checkout")


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {"nproc": os.cpu_count(), "threads": THREADS,
            "numpy": np.__version__, "blas": blas_name,
            "python": platform.python_version(), "git_commit": commit}


def make_inputs(wl: Workload, seed: int, n_train: int, work: str) -> dict:
    """Write the workload's inputs and config; return the seeds and N."""
    from sadp import cli
    from sadp.data import DatasetHandle, gen_synthetic, write_spike_file
    from sadp.snn import Network

    seeds = seeds_for(seed)
    total = n_train + n_train // 4  # the CLI holds out the last fifth
    handle = gen_synthetic(CLASSES, total, TIME_STEPS, DIM, NOISE, seed=seeds["data"])
    if wl.image:
        side = math.isqrt(DIM)
        handle = DatasetHandle(handle.data.reshape(total, TIME_STEPS, side, side),
                               handle.labels, time_steps=TIME_STEPS)
    write_spike_file(handle, os.path.join(work, "inputs.spkt"))
    config = {"dataset.path": "../inputs.spkt", "net.arch": wl.arch,
              "seed.init": seeds["seed.init"], "seed.sample": seeds["seed.sample"],
              "seed.shuffle": seeds["seed.shuffle"], **wl.config}
    if wl.command == "analyze":
        net = Network.from_arch(wl.arch, (DIM,), seed=seeds["seed.init"])
        cli.save_weights(net, wl.arch, (DIM,), os.path.join(work, "weights_in.npz"))
        config["out.weights"] = "../weights_in.npz"
    with open(os.path.join(work, "bench.cfg"), "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in config.items())
    return {"seeds": seeds, "n": n_train}


def run_rep(work: str, index: int, command: str, traced: bool, timeout: float) -> dict:
    repdir = os.path.join(work, f"rep{index}")
    os.makedirs(repdir)
    out = os.path.join(repdir, "rep.json")
    env = dict(os.environ, **{v: str(THREADS) for v in THREAD_VARS})
    env.pop("SADP_LOG", None)
    with open(os.path.join(repdir, "stdout.txt"), "w") as so, \
            open(os.path.join(repdir, "stderr.txt"), "w") as se:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), ROOT,
             "../bench.cfg", command, "1" if traced else "0", repr(t0), out],
            cwd=repdir, env=env, stdout=so, stderr=se)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass  # counted as a failed repetition below
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    rec = {"rc": proc.returncode}
    if proc.returncode == 0 and os.path.exists(out):
        with open(out) as fh:
            rec = json.load(fh)
    rec.update(dir=repdir, traced=traced)
    return rec


def weights_digest(h, path: str) -> None:
    import numpy as np
    with np.load(path) as z:
        for key in sorted(z.files):
            arr = z[key]
            h.update(f"{key}:{arr.dtype}:{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())


def check_training(rec: dict, n: int, epochs: int, pruned: bool) -> None:
    """Per-epoch output checks; sets rec's attempted, failed and digest."""
    from sadp import cli
    from sadp.data import METRICS_HEADER

    rec.update(attempted=epochs, failed=epochs, digest=None)
    if rec["rc"] != 0:
        return
    header = METRICS_HEADER.split(",")
    try:
        with open(os.path.join(rec["dir"], "metrics.csv")) as fh:
            lines = fh.read().splitlines()
        rows = [dict(zip(header, map(float, line.split(",")), strict=True))
                for line in lines[1:]]
        cli.load_weights(os.path.join(rec["dir"], "weights.npz"))
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        return
    if not lines or lines[0].split(",") != header or len(rows) != epochs:
        return
    sigma = math.sqrt(n * 0.25)  # Bernoulli draw, the acceptance suite's rule
    failed = 0
    for k, row in enumerate(rows, 1):
        ok = all(math.isfinite(v) for v in row.values()) and row["epoch"] == k \
            and row["processed"] > 0
        if pruned:
            ok = ok and abs(row["processed"] - (1.0 - row["ratio"]) * n) <= 4 * sigma
        else:
            ok = ok and row["processed"] == n
        failed += not ok
    h = hashlib.sha256()
    wall = header.index("wall_s")
    for line in lines:
        h.update(",".join(v for i, v in enumerate(line.split(",")) if i != wall).encode())
    weights_digest(h, os.path.join(rec["dir"], "weights.npz"))
    rec.update(failed=failed, digest=h.hexdigest(), rows=rows)


def parse_report(text: str) -> dict:
    """The analyze report: examples, two correlations, three variances."""
    lines = text.splitlines()
    out = {"examples": int(lines[0].split(":")[1]),
           "score_norm_pearson": float(lines[1].split("=")[1]),
           "loss_norm_pearson": float(lines[2].split("=")[1])}
    if lines[3] != "method,variance" or len(lines) != 7:
        raise ValueError("bad variance table")
    for line in lines[4:]:
        method, value = line.split(",")
        out[f"variance_{method}"] = float(value)
    return out


def check_analyze(rec: dict, n: int) -> None:
    rec.update(attempted=1, failed=1, digest=None)
    if rec["rc"] != 0:
        return
    try:
        with open(os.path.join(rec["dir"], "report.txt")) as fh:
            text = fh.read()
        report = parse_report(text)
    except (OSError, IndexError, ValueError):
        return
    ok = report["examples"] == n and all(
        math.isfinite(v) for v in report.values())
    rec.update(failed=int(not ok), digest=hashlib.sha256(text.encode()).hexdigest(),
               report=report)


def held_out(work: str):
    """The held-out split and neuron config the CLI derives from bench.cfg."""
    from sadp import cli
    cfg = cli.parse_config(os.path.join(work, "bench.cfg"), [
        f"dataset.path={os.path.relpath(os.path.join(work, 'inputs.spkt'))}"])
    _, test = cli.load_dataset(cfg)
    return test, cli.neuron_config(cfg, test.time_steps)


def score_norm_pearson(wl: Workload, rec: dict) -> float:
    """Pearson(spike-aware score, exact gradient norm) of one checked rep.

    Analyze prints it for the initial weights on the training split; for
    training it is measured here, outside the timed process, for the trained
    weights on the held-out split.
    """
    from sadp import cli, oracle
    if wl.command == "analyze":
        return rec["report"]["score_norm_pearson"]
    test, ncfg = held_out(os.path.dirname(rec["dir"]))
    net = cli.load_weights(os.path.join(rec["dir"], "weights.npz"))
    return oracle.measure_correlations(net, test.data, test.labels, ncfg).score_vs_norm


def held_out_accuracy(wl: Workload, rec: dict) -> float:
    """Held-out accuracy of the net the workload ends with.

    The final epoch's test_acc for training; for analyze, that of the
    analyzed initial weights, which sits near chance.
    """
    from sadp import cli
    from sadp.training import evaluate
    if wl.command == "train":
        return rec["rows"][-1]["test_acc"]
    work = os.path.dirname(rec["dir"])
    test, ncfg = held_out(work)
    return evaluate(cli.load_weights(os.path.join(work, "weights_in.npz")), test, ncfg)


def median_of(recs: list, key) -> float | None:
    """Median of key over the repetitions whose command ran to the end."""
    values = [key(r) for r in recs if r.get("run_s") is not None]
    return statistics.median(values) if values else None


def end_to_end_metrics(wl: Workload, inputs: dict, recs: list) -> dict:
    good = [r for r in recs if r["digest"] is not None]
    n = inputs["n"]

    def examples(r):
        if wl.command == "train":
            return sum(row["processed"] for row in r["rows"]) / r["run_s"]
        return n / r["run_s"]
    values = {"setup_s": median_of(recs, lambda r: r["setup_s"]),
              "run_s": median_of(recs, lambda r: r["run_s"]),
              "examples_per_s": median_of(good, examples),
              "peak_rss_mb": median_of(recs, lambda r: r["peak_rss_mb"])}
    values["score_norm_pearson"] = score_norm_pearson(wl, good[0]) if good else None
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(wl: Workload, inputs: dict, recs: list) -> dict:
    traced = [r for r in recs if r["traced"] and "trace" in r]
    plain = [r for r in recs if not r["traced"]]
    values = {}
    for name in LAYER_STATS:
        func, stat = name.rsplit(".", 1)
        values[name] = median_of(
            traced, lambda r: r["trace"].get(func, {}).get(stat, 0))
    values["snn.per_example_grad_bytes"] = median_of(
        traced, lambda r: r["per_example_grad_bytes"])
    values["pruning.fallbacks"] = median_of(traced, lambda r: r["fallbacks"])
    checked = [r for r in traced if r["digest"] is not None]
    values["training.test_acc"] = held_out_accuracy(wl, checked[0]) if checked else None
    if wl.command == "analyze":
        # analyze draws no subset: every example is used once.
        values["pruning.solver_iters"], values["pruning.kept_fraction"] = 0, 1.0
    elif checked:
        rows = checked[0]["rows"]
        values["pruning.solver_iters"] = sum(row["solver_iters"] for row in rows)
        values["pruning.kept_fraction"] = sum(
            row["processed"] for row in rows) / (inputs["n"] * len(rows))
    t_med = median_of(traced, lambda r: r["run_s"])
    u_med = median_of(plain, lambda r: r["run_s"])
    values["trace_overhead_s"] = None if t_med is None or u_med is None \
        else t_med - u_med
    return {name: {"value": values.get(name), "unit": layer_unit(name)}
            for name in (*LAYER_STATS, *COUNTERS)}


def run(workload: str, seed: int, seconds: float, trace: bool,
        n_train: int) -> tuple[dict, dict]:
    wl = WORKLOADS[workload]
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = make_inputs(wl, seed, n_train, work)
        epochs = int(wl.config.get("train.epochs", 0))
        pruned = wl.config.get("prune.enabled") == "true"
        kinds = (False, True) if trace else (False,)
        recs: list[dict] = []
        start = time.monotonic()
        longest = 0.0
        while True:
            elapsed = time.monotonic() - start
            if len(recs) >= MIN_REPS * len(kinds) and \
                    (elapsed >= seconds or elapsed + 2 * longest > DEADLINE_S):
                break
            t = time.monotonic()
            rec = run_rep(work, len(recs), wl.command, kinds[len(recs) % len(kinds)],
                          timeout=max(1.0, DEADLINE_S + 20 - elapsed))
            longest = max(longest, time.monotonic() - t)
            if wl.command == "train":
                check_training(rec, inputs["n"], epochs, pruned)
            else:
                check_analyze(rec, inputs["n"])
            recs.append(rec)
        # Output must be identical across repetitions of one seed, traced or
        # not; a repetition that differs from the first good one fails all
        # its operations.
        reference = next((r["digest"] for r in recs if r["digest"]), None)
        for r in recs:
            if r["digest"] != reference:
                r["failed"] = r["attempted"]
        digests = {r["digest"] for r in recs}
        metrics = per_layer_metrics(wl, inputs, recs) if trace \
            else end_to_end_metrics(wl, inputs, recs)
        attempted = sum(r["attempted"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        correct = failed == 0 and all(
            m["value"] is not None and math.isfinite(m["value"])
            for m in metrics.values())
        record = {"workload": workload, "seed": seed, "trace": int(trace),
                  "seeds": inputs["seeds"], "n_train": n_train,
                  "env": environment(), "digest": sorted(d or "" for d in digests),
                  "reps": [{k: r.get(k) for k in ("traced", "rc", "setup_s", "run_s",
                                                  "peak_rss_mb", "failed")}
                           for r in recs]}
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return record, result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-train", type=int, default=2000,
                        help="training examples; the self-test uses a tiny size")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported in this process
        os.environ[var] = str(THREADS)
    import_sadp()
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.n_train)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
