"""Command-line entry point: train / verify / analyze / gen-data."""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import logging
import os
import sys
import zipfile

import numpy as np

from . import oracle, verify
from .config import UsageError, parse_config, parse_score_layers
from .data import (DatasetHandle, atomic_write_bytes, encode,
                   gen_synthetic_split, load_idx, read_spike_file,
                   write_metrics, write_spike_file)
from .pruning import (NO_PRUNING, PruneConfig, method_probabilities,
                      target_size)
from .snn import NeuronConfig, Network, check_data, parse_arch
from .training import NumericDivergenceError, TrainConfig, run_training

logger = logging.getLogger("sadp")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

# glibc's mallopt parameters (malloc.h) and the values main sets.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2**20  # the cap of glibc's own dynamic threshold on 64-bit
TRIM_THRESHOLD = 64 * 2**20


def _setup_logging() -> None:
    """Log at SADP_LOG's level: error, warning (the default), info or debug."""
    level = {"error": logging.ERROR, "warning": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG
             }.get(os.environ.get("SADP_LOG", "warning"), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _libc():
    return ctypes.CDLL(None)


def _keep_freed_pages() -> None:
    """Keep freed heap memory in the process, so a run faults its working
    set in once.

    By default glibc maps every block above a dynamic threshold (128 KB at
    start) with its own mmap, unmaps it on free, and returns the heap top to
    the OS above 128 KB.  The engine's per-batch and per-chunk arrays are
    larger, so each batch would fault them in again.  With blocks of up to
    32 MB served from the heap and the top trimmed only above 64 MB, freed
    arrays are reused.  Only `main`, the process entry point, calls this;
    library callers keep their allocator.  Where mallopt is missing or
    rejects a value, the default stays and one DEBUG line says so.
    """
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError, TypeError) as exc:
        logger.debug("allocator left at its defaults: no mallopt (%s)", exc)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                         (M_TRIM_THRESHOLD, TRIM_THRESHOLD)):
        if mallopt(param, value) != 1:
            logger.debug("allocator left at its default: mallopt(%d, %d) "
                         "rejected", param, value)


def neuron_config(cfg: dict, time_steps: int) -> NeuronConfig:
    return NeuronConfig(decay=cfg["neuron.lambda"],
                        threshold=cfg["neuron.threshold"],
                        surrogate_width=cfg["neuron.surrogate_width"],
                        reset_detached=cfg["neuron.reset_detached"],
                        time_steps=time_steps)


@contextlib.contextmanager
def _reading(what: str, path: str):
    """Report an unreadable or malformed input file as a usage error."""
    try:
        yield
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        reason = getattr(exc, "strerror", None) \
            or (exc.args[0] if exc.args else exc)
        raise UsageError(f"cannot read {what} {path}: {reason}") from exc


@contextlib.contextmanager
def _config_values(prefix: str = "invalid config: "):
    """Report a value that a run record or data rule rejects as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from exc


def load_dataset(cfg: dict) -> tuple[DatasetHandle, DatasetHandle]:
    """Resolve the configured dataset into pre-encoded train/test handles.

    dataset.path may be an SPKT file or "images.idx:labels.idx" (static IDX
    data, encoded per encode.mode with dataset.synthetic.t time steps).  With
    no path, a synthetic spike dataset of dataset.synthetic.n train examples
    (plus a held-out 25% test set) is generated.
    """
    path = cfg["dataset.path"]
    t = cfg["dataset.synthetic.t"]
    if path:
        with _reading("dataset", path):
            if ":" in path:
                images, labels = load_idx(*path.split(":", 1))
                handle = DatasetHandle(encode(images, cfg["encode.mode"], t,
                                              seed=_data_seed(cfg)),
                                       labels, time_steps=t)
            else:
                handle = read_spike_file(path)
        n_test = max(handle.n // 5, 1)
        n_train = handle.n - n_test
        if n_train < 1:
            raise UsageError(f"dataset {path} of {handle.n} example(s) leaves "
                             "no training example after the 80/20 split")
        train = DatasetHandle(handle.data[:n_train], handle.labels[:n_train],
                              time_steps=handle.time_steps)
        test = DatasetHandle(handle.data[n_train:], handle.labels[n_train:],
                             time_steps=handle.time_steps)
        return train, test
    if cfg["dataset.synthetic.n"] <= 0:
        raise UsageError("missing required config key: dataset.path "
                         "(or set dataset.synthetic.n for synthetic data)")
    n = cfg["dataset.synthetic.n"]
    with _config_values():
        return gen_synthetic_split(cfg["dataset.synthetic.classes"], n,
                                   max(n // 4, cfg["dataset.synthetic.classes"]),
                                   t, cfg["dataset.synthetic.dim"],
                                   cfg["dataset.synthetic.noise"],
                                   seed=_data_seed(cfg))


def _data_seed(cfg: dict) -> np.random.SeedSequence:
    """The seed of the data draws (synthetic data, rate encoding): a child of
    seed.init's sequence, so no draw shares the weights' default_rng(seed.init)."""
    return np.random.SeedSequence(cfg["seed.init"], spawn_key=(0,))


def build_network(cfg: dict, train: DatasetHandle) -> Network:
    return Network.from_arch(cfg["net.arch"], train.input_shape,
                             seed=cfg["seed.init"])


def _fitted_neuron_config(cfg: dict, net: Network,
                          *handles: DatasetHandle) -> NeuronConfig:
    """The neuron config at the first handle's T, once every handle fits net
    (`snn.check_data`); a misfit is a usage error."""
    with _config_values():
        ncfg = neuron_config(cfg, handles[0].time_steps)
    with _config_values(""):
        for handle in handles:
            check_data(net, handle.data, handle.labels, ncfg, "dataset")
    return ncfg


def save_weights(net: Network, arch: str, input_shape, path: str) -> None:
    buf = io.BytesIO()
    arrays = {f"w{i}": w for i, w in enumerate(net.weights)}
    np.savez(buf, arch=np.array(arch), input_shape=np.array(input_shape),
             **arrays)
    atomic_write_bytes(path, buf.getvalue())


def load_weights(path: str) -> Network:
    """The net a save_weights file holds, built once from its arrays, which
    must be exactly arch, input_shape and w0 .. w{L-1}."""
    with _reading("weights", path), np.load(path) as z:
        arch = str(z["arch"])
        shape = z["input_shape"]
        if shape.ndim != 1 or shape.dtype.kind not in "iu":
            raise ValueError(f"input_shape must be a 1-D integer array, got "
                             f"{shape.dtype} of shape {shape.shape}")
        specs = parse_arch(arch, tuple(int(v) for v in shape))
        names = ["arch", "input_shape"] + [f"w{i}" for i in range(len(specs))]
        if set(z.files) != set(names):
            raise ValueError(f"arrays {', '.join(sorted(z.files))} are not "
                             f"those of a {len(specs)}-layer net: "
                             f"{', '.join(names)}")
        return Network([(spec, z[f"w{i}"]) for i, spec in enumerate(specs)])


def _prune_config(cfg: dict, n_layers: int) -> PruneConfig:
    return PruneConfig(ratio=cfg["prune.ratio"], max_ratio=cfg["prune.max_ratio"],
                       smoothing_constant=cfg["prune.beta"],
                       exact_average=cfg["prune.exact_average"],
                       score=cfg["prune.score"],
                       score_layers=parse_score_layers(cfg["score.layers"],
                                                       n_layers))


def cmd_train(cfg: dict) -> int:
    train, test = load_dataset(cfg)
    with _config_values():
        net = build_network(cfg, train)
        tcfg = TrainConfig(epochs=cfg["train.epochs"], batch_size=cfg["train.batch"],
                           lr=cfg["train.lr"], momentum=cfg["train.momentum"],
                           weight_decay=cfg["train.weight_decay"],
                           schedule=cfg["train.lr_schedule"],
                           seed_sample=cfg["seed.sample"],
                           seed_shuffle=cfg["seed.shuffle"])
        pcfg = _prune_config(cfg, len(net))
    ncfg = _fitted_neuron_config(cfg, net, train, test)
    metrics = run_training(net, train, test, ncfg,
                           pcfg if cfg["prune.enabled"] else NO_PRUNING, tcfg)
    write_metrics(metrics, cfg["out.metrics"])
    save_weights(net, cfg["net.arch"], net.specs[0].input_shape,
                 cfg["out.weights"])
    print(f"trained {tcfg.epochs} epochs; metrics -> {cfg['out.metrics']}, "
          f"weights -> {cfg['out.weights']}")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    passed, lines = verify.run_suite(seed=cfg["seed.init"])
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    atomic_write_bytes(cfg["out.report"], report.encode())
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_analyze(cfg: dict) -> int:
    train, _ = load_dataset(cfg)
    net = load_weights(cfg["out.weights"])
    ncfg = _fitted_neuron_config(cfg, net, train)
    with _config_values():
        pcfg = _prune_config(cfg, len(net))
    n = train.n
    if n < 2:
        raise UsageError(f"analyze needs at least 2 training examples to "
                         f"correlate, got {n}")
    target = target_size(pcfg.ratio, n)
    if target == 0:
        raise UsageError(f"invalid config: prune.ratio {pcfg.ratio} keeps "
                         f"no example of N={n}")
    rep = oracle.exact_grad_norms(net, train.data, train.labels, ncfg,
                                  pcfg.score_layers)
    try:
        corr = rep.correlations()
    except oracle.UndefinedCorrelationError as exc:
        raise UsageError("cannot correlate constant scores or gradient norms "
                         "(does the net spike?)") from exc
    rows = ["method,variance"]
    # The same rule that training samples by; uniform reads no score.
    for name, scores in (("spike_aware", rep.scores), ("loss", rep.losses),
                         ("uniform", rep.losses)):
        p = method_probabilities(name, scores, target,
                                 pcfg.smoothing_constant).probabilities
        try:
            var = oracle.variance_formula(rep.full_norms, p, n)
        except oracle.InfiniteVarianceError:  # p = 0 for a nonzero norm
            var = np.inf
        rows.append(f"{name},{var:.10g}")
    summary = (f"examples: {n}\n"
               f"pearson(spike_aware_score, grad_norm) = {corr.score_vs_norm:.6f}\n"
               f"pearson(loss, grad_norm) = {corr.loss_vs_norm:.6f}\n"
               + "\n".join(rows) + "\n")
    sys.stdout.write(summary)
    atomic_write_bytes(cfg["out.report"], summary.encode())
    return EXIT_OK


def cmd_gen_data(cfg: dict) -> int:
    if not cfg["dataset.path"]:
        raise UsageError("missing required config key: dataset.path")
    if cfg["dataset.synthetic.n"] <= 0:
        raise UsageError("missing required config key: dataset.synthetic.n")
    from .data import gen_synthetic
    with _config_values():
        handle = gen_synthetic(cfg["dataset.synthetic.classes"],
                               cfg["dataset.synthetic.n"],
                               cfg["dataset.synthetic.t"],
                               cfg["dataset.synthetic.dim"],
                               cfg["dataset.synthetic.noise"],
                               seed=_data_seed(cfg))
    write_spike_file(handle, cfg["dataset.path"])
    print(f"wrote {handle.n} examples to {cfg['dataset.path']}")
    return EXIT_OK


COMMANDS = {"train": cmd_train, "verify": cmd_verify, "analyze": cmd_analyze,
            "gen-data": cmd_gen_data}
# The config keys that name the files each command writes.
OUTPUTS = {"train": ("out.metrics", "out.weights"), "verify": ("out.report",),
           "analyze": ("out.report",), "gen-data": ("dataset.path",)}


def _check_outputs(cfg: dict, keys: tuple[str, ...]) -> None:
    """Each output path must name a file in an existing, writable directory,
    checked before any work, so that a bad path costs no run."""
    for key in keys:
        path = cfg[key]
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise UsageError(f"cannot write {key} {path}: no directory "
                             f"{directory}")
        if not os.access(directory, os.W_OK | os.X_OK):
            raise UsageError(f"cannot write {key} {path}: directory "
                             f"{directory} is not writable")
        if os.path.isdir(path):
            raise UsageError(f"cannot write {key} {path}: it is a directory")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    _keep_freed_pages()
    parser = argparse.ArgumentParser(
        prog="sadp",
        description="Spiking-network training lab with variance-minimizing "
                    "data pruning")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("-c", "--config", help="key=value config file")
    parser.add_argument("-o", "--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        _check_outputs(cfg, OUTPUTS[args.command])
        return COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericDivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
