"""End-to-end acceptance checks for the pruning laboratory.

Every check prints one PASS/FAIL line (collected into the terminal summary)
and asserts the same condition, so a red test always has a matching FAIL line.
The oracle checks come from the registry in `sadp.verify`, one test per
entry named after it; the two desk-scale gates below are wall-clock and
accuracy gates at training scale and live only here.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import acceptance_lines
from sadp.pruning import PruneConfig
from sadp.verify import CHECKS, result_line, train_synthetic


def report(ok, name, detail):
    line = result_line(ok, name, detail)
    acceptance_lines.append(line)
    print(line)
    assert ok, line


def _registry_test(name):
    def test():
        ok, detail = CHECKS[name]()
        report(ok, name, detail)
    return test


# One test per registry entry; the test name follows the check name so that
# each check keeps a stable test id.
for _name in CHECKS:
    globals()[f"test_{_name.replace('-', '_')}"] = _registry_test(_name)


@pytest.fixture(scope="module")
def desk_scale_runs():
    """Three seeds of full / spike-aware / random-subset training, 30 epochs,
    2,000 ten-class examples of dimension 64 at ratio 0.7."""
    t0 = time.perf_counter()
    accs = {"full": [], "sadp": [], "random": []}
    for seed in (0, 1, 2):
        kw = dict(seed=seed, epochs=30, arch="dense:64,dense:10", n=2000,
                  classes=10, dim=64, t=8, noise=0.2, threshold=0.8)
        pcfg = PruneConfig(ratio=0.7, max_ratio=0.9, smoothing_constant=0.2)
        _, rows = train_synthetic(None, **kw)
        accs["full"].append(rows[-1].test_acc)
        _, rows = train_synthetic(pcfg, **kw)
        accs["sadp"].append(rows[-1].test_acc)
        _, rows = train_synthetic(dataclasses.replace(pcfg, score="uniform"),
                                  **kw)
        accs["random"].append(rows[-1].test_acc)
    return {k: float(np.mean(v)) for k, v in accs.items()}, time.perf_counter() - t0


def test_desk_scale_accuracy(desk_scale_runs):
    means, elapsed = desk_scale_runs
    ok = (means["sadp"] >= means["random"]
          and means["sadp"] >= means["full"] - 0.02
          and elapsed < 600.0)
    report(ok, "desk-scale-accuracy",
           f"full {means['full']:.4f}, spike-aware {means['sadp']:.4f}, "
           f"random {means['random']:.4f} (3-seed means, {elapsed:.0f}s)")


def test_time_proportionality():
    """Pruned epochs process the scheduled count and run proportionally faster."""
    kw = dict(seed=0, epochs=6, arch="dense:256,dense:10", n=2000, classes=10,
              dim=64, t=8, noise=0.2, threshold=0.8, test=False)
    train_synthetic(None, epochs=1, arch="dense:256,dense:10", n=512,
                    classes=10, dim=64, t=8, test=False)  # warm caches before timing
    pcfg = PruneConfig(ratio=0.5, max_ratio=0.5, smoothing_constant=0.3)
    # Interleave repeated full and pruned runs and keep per-epoch minima, so
    # transient machine load cannot skew one side of the comparison.
    full_walls, pruned_walls = [], []
    for _ in range(3):
        _, full_rows = train_synthetic(None, **kw)
        full_walls.append([r.wall_s for r in full_rows])
        _, rows = train_synthetic(pcfg, **kw)
        pruned_walls.append([r.wall_s for r in rows])
    full_epoch = float(np.mean(np.min(full_walls, axis=0)))
    walls = np.min(pruned_walls, axis=0)
    n = 2000
    sigma = np.sqrt(n * 0.25)
    count_ok = all(abs(r.processed - (1 - r.ratio) * n) <= 4 * sigma for r in rows)
    time_ok = all(w <= 1.10 * (1 - r.ratio) * full_epoch
                  for w, r in zip(walls, rows))
    ratios = [w / ((1 - r.ratio) * full_epoch) for w, r in zip(walls, rows)]
    report(count_ok and time_ok, "time-proportionality",
           f"processed counts within 4 sigma, worst epoch-time ratio "
           f"{max(ratios):.3f} (limit 1.10); per epoch ratio/processed "
           + ", ".join(f"{q:.3f}/{r.processed}" for q, r in zip(ratios, rows)))
