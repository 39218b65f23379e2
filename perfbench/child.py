"""One repetition of a benchmark workload, in a fresh Python process.

    python3 child.py ROOT CONFIG COMMAND TRACE T0 OUT

Runs `sadp COMMAND -c CONFIG` in the current directory through
`sadp.cli.main`, the entry point of the `sadp` script, importing sadp from
ROOT/src.  Writes one JSON record to OUT:

- setup_s: from T0, the CLOCK_MONOTONIC reading the parent took just before
  it spawned this process, to the first call into the engine
  (`run_training` for train, `oracle.exact_grad_norms` for analyze);
- run_s: from that call until the command returns;
- peak_rss_mb: this process's peak resident set size at that point;
- rc: the command's exit code.

With TRACE=1 the public functions of the traced sadp modules are wrapped
first, from outside, and the record adds their call counts, total and self
times plus the counters the wrappers observe.  src/ is not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import logging
import os
import resource
import sys
import time

TRACED_MODULES = ("snn", "pruning", "training", "oracle", "data", "cli")
FALLBACK_TEXT = "falling back to uniform"


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class FallbackCounter(logging.Handler):
    """Counts the library's existing uniform-fallback log records."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if FALLBACK_TEXT in record.getMessage():
            self.count += 1


class Tracer:
    """Spans around every call of the wrapped functions.

    A function's self time is its duration minus the durations of the wrapped
    calls made inside it.  Each stats entry is [calls, total_s, self_s].
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.child_time: list[float] = []  # one accumulator per open span
        self.grad_bytes = 0
        self.fallbacks = FallbackCounter()

    def wrap(self, name: str, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time = self.child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                inner = child_time.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - inner
                if child_time:
                    child_time[-1] += duration
            if observe is not None:
                observe(result)
            return result
        return traced

    def _count_grad_bytes(self, btrace) -> None:
        self.grad_bytes += sum(g.nbytes for g in btrace.per_example_grads)

    def install(self) -> None:
        """Rebind each traced function in every sadp namespace that holds it.

        Callers bind names such as `forward` or `smooth_probabilities` at
        import, so a wrapper must replace the name where it is looked up.
        """
        from sadp import snn
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"sadp.{short}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    observe = self._count_grad_bytes if obj is snn.backward_bptt else None
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj, observe)
        for name, mod in list(sys.modules.items()):
            if name == "sadp" or name.startswith("sadp."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])
        snn.BackwardTrace.weight_grads = self.wrap("snn.weight_grads",
                                                   snn.BackwardTrace.weight_grads)
        # The CLI sets the root logger to ERROR, which would drop the fallback
        # warnings before any handler saw them.
        sadp_logger = logging.getLogger("sadp")
        sadp_logger.setLevel(logging.WARNING)
        sadp_logger.addHandler(self.fallbacks)

    def report(self) -> dict:
        return {"trace": {name: {"calls": c, "s": s, "self_s": self_s}
                          for name, (c, s, self_s) in self.stats.items()},
                "per_example_grad_bytes": self.grad_bytes,
                "fallbacks": self.fallbacks.count}


def main(argv: list[str]) -> int:
    root, config, command, trace, t0, out = argv
    sys.path.insert(0, os.path.join(root, "src"))
    from sadp import cli, oracle

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()

    # The main call starts at the first call into the engine; everything
    # before it (interpreter start, imports, config parse, input read,
    # network build or weight load) is set-up.
    owner, name = (cli, "run_training") if command == "train" \
        else (oracle, "exact_grad_norms")
    entry = getattr(owner, name)
    started: list[float] = []

    def marked(*args, **kwargs):
        if not started:
            started.append(clock())
        return entry(*args, **kwargs)
    setattr(owner, name, marked)

    rc = cli.main([command, "-c", config])
    end = clock()
    record = {"rc": rc,
              "setup_s": started[0] - float(t0) if started else None,
              "run_s": end - started[0] if started else None,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        record.update(tracer.report())
    with open(out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
