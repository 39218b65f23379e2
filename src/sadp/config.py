"""Flat key=value run configuration with Table-style defaults."""

from __future__ import annotations

import numpy as np

from .pruning import ConfigError, resolve_score_layers


class UsageError(ValueError):
    """Bad or missing configuration; maps to process exit code 2."""


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"cannot parse boolean value {text!r}")


# key -> (parser, default).  A default of None means "derived later".
KNOWN_KEYS: dict[str, tuple] = {
    "dataset.path": (str, ""),
    "dataset.synthetic.classes": (int, 10),
    "dataset.synthetic.n": (int, 0),
    "dataset.synthetic.t": (int, 8),
    "dataset.synthetic.dim": (int, 64),
    "dataset.synthetic.noise": (float, 0.1),
    "encode.mode": (str, "direct"),
    "net.arch": (str, "dense:64,dense:10"),
    "neuron.lambda": (float, 0.1),
    "neuron.threshold": (float, 1.0),
    "neuron.surrogate_width": (float, 1.0),
    "neuron.reset_detached": (_bool, True),
    "train.epochs": (int, 30),
    "train.batch": (int, 64),
    "train.lr": (float, 0.1),
    "train.momentum": (float, 0.9),
    "train.weight_decay": (float, 0.0),
    "train.lr_schedule": (str, "cosine"),
    "prune.enabled": (_bool, False),
    "prune.ratio": (float, 0.5),
    "prune.max_ratio": (float, None),
    "prune.beta": (float, None),
    "prune.score": (str, "spike_aware"),
    "prune.exact_average": (_bool, False),
    "score.layers": (str, "last"),
    "seed.init": (int, 0),
    "seed.sample": (int, 1),
    "seed.shuffle": (int, 2),
    "out.metrics": (str, "metrics.csv"),
    "out.weights": (str, "weights.npz"),
    "out.report": (str, "report.txt"),
}

# Smoothing constant and max ratio anchors per pruning ratio; unspecified
# ratios interpolate linearly and clamp at the ends.
_RATIO_ANCHORS = np.array([0.3, 0.5, 0.7, 0.9])
_BETA_ANCHORS = np.array([0.35, 0.30, 0.20, 0.05])
_RMAX_ANCHORS = np.array([0.60, 0.70, 0.90, 1.00])


def default_beta(ratio: float) -> float:
    return float(np.interp(ratio, _RATIO_ANCHORS, _BETA_ANCHORS))


def default_max_ratio(ratio: float) -> float:
    return float(max(ratio, np.interp(ratio, _RATIO_ANCHORS, _RMAX_ANCHORS)))


def parse_config(path: str | None = None,
                 overrides: list[str] | None = None) -> dict:
    """Read a key=value config file plus command-line overrides.

    Lines are `key = value`; `#` starts a comment; unknown keys are rejected,
    and so are a time-step count or an input size below 1.
    """
    values = {k: d for k, (_, d) in KNOWN_KEYS.items()}
    pairs: list[tuple[str, str]] = []
    if path:
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise UsageError(f"{path}:{lineno}: expected key=value")
                    key, val = line.split("=", 1)
                    pairs.append((key.strip(), val.strip()))
        except OSError as exc:
            raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"override must be key=value, got {item!r}")
        key, val = item.split("=", 1)
        pairs.append((key.strip(), val.strip()))

    for key, val in pairs:
        if key not in KNOWN_KEYS:
            raise UsageError(f"unknown config key: {key}")
        parser = KNOWN_KEYS[key][0]
        try:
            values[key] = parser(val)
        except UsageError:
            raise
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {val!r}") from exc

    if values["prune.max_ratio"] is None:
        values["prune.max_ratio"] = default_max_ratio(values["prune.ratio"])
    if values["prune.beta"] is None:
        values["prune.beta"] = default_beta(values["prune.ratio"])
    if values["encode.mode"] not in ("direct", "rate"):
        raise UsageError("encode.mode must be direct or rate")
    for key in ("dataset.synthetic.t", "dataset.synthetic.dim"):
        if values[key] < 1:
            raise UsageError(f"invalid config: {key} must be >= 1, "
                             f"got {values[key]}")
    return values


def parse_score_layers(text: str, n_layers: int) -> tuple[int, ...]:
    """score.layers: `last`, `all` or comma-separated layer indices, checked
    by `pruning.resolve_score_layers`."""
    text = text.strip()
    if text == "all":
        return tuple(range(n_layers))
    try:
        layers = None if text == "last" else tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad score.layers value {text!r}") from exc
    try:
        return resolve_score_layers(layers, n_layers)
    except ConfigError as exc:
        raise UsageError(f"score.layers {text!r}: {exc}") from exc
