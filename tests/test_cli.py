import dataclasses
import importlib
import logging
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import sadp
from sadp import cli, oracle, verify
from sadp.cli import (EXIT_CHECK_FAILED, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE,
                      load_dataset, load_weights, main, neuron_config,
                      save_weights)
from sadp.config import (KNOWN_KEYS, UsageError, default_beta,
                         default_max_ratio, parse_config, parse_score_layers)
from sadp.data import (METRICS_HEADER, DatasetHandle, gen_synthetic,
                       read_spike_file, write_spike_file)
from sadp.pruning import PruneConfig, smooth_probabilities, spike_aware_score
from sadp.snn import Network, backward_bptt, forward
from sadp.training import TrainConfig, run_training


def write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


BASE_CFG = """
# small synthetic run
dataset.synthetic.n = 64
dataset.synthetic.classes = 4
dataset.synthetic.dim = 16
dataset.synthetic.t = 4
net.arch = dense:12,dense:4
neuron.threshold = 0.8
train.epochs = 3
train.batch = 32
train.lr = 0.05
"""


def train_args(tmp_path, out_dir, extra=""):
    return ["train", "-c", write_config(tmp_path, BASE_CFG + extra),
            "-o", f"out.metrics={out_dir}/m.csv",
            "-o", f"out.weights={out_dir}/w.npz"]


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = parse_config(None, [])
        assert cfg["neuron.lambda"] == 0.1
        assert cfg["train.momentum"] == 0.9
        assert cfg["prune.beta"] == pytest.approx(default_beta(0.5))
        assert cfg["prune.max_ratio"] == pytest.approx(default_max_ratio(0.5))

    def test_beta_anchors(self):
        assert default_beta(0.3) == pytest.approx(0.35)
        assert default_beta(0.5) == pytest.approx(0.30)
        assert default_beta(0.7) == pytest.approx(0.20)
        assert default_beta(0.9) == pytest.approx(0.05)
        assert default_beta(0.6) == pytest.approx(0.25)

    def test_max_ratio_anchors(self):
        assert default_max_ratio(0.3) == pytest.approx(0.60)
        assert default_max_ratio(0.9) == pytest.approx(1.00)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "train.learning_rate = 0.1\n")
        with pytest.raises(UsageError):
            parse_config(path, [])

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "train.epochs = many\n")
        with pytest.raises(UsageError):
            parse_config(path, [])

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path, "train.epochs = 5\n")
        cfg = parse_config(path, ["train.epochs=9"])
        assert cfg["train.epochs"] == 9

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path, "\n# note\ntrain.batch = 16  # inline\n")
        assert parse_config(path, [])["train.batch"] == 16

    def test_every_key_is_read(self):
        """A key the program never reads would be accepted and ignored."""
        package = Path(sadp.__file__).parent
        sources = "".join(p.read_text() for p in package.glob("*.py")
                          if p.name != "config.py")
        unread = [k for k in KNOWN_KEYS if f'"{k}"' not in sources]
        assert unread == []

    def test_every_record_field_is_read(self):
        """A dataclass field nothing reads is state kept for no one.  A read
        is `.name` anywhere in the package or the tests that is not the
        target of an assignment."""
        package = Path(sadp.__file__).parent
        files = [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]
        sources = "".join(p.read_text() for p in files)
        unread = []
        for short in ("snn", "pruning", "training", "oracle", "data", "config"):
            module = importlib.import_module(f"sadp.{short}")
            for cls in vars(module).values():
                if not (dataclasses.is_dataclass(cls)
                        and cls.__module__ == module.__name__):
                    continue
                for f in dataclasses.fields(cls):
                    read = rf"\.{f.name}\b(?!\s*(\[[^\]]*\])?\s*=[^=])"
                    if not re.search(read, sources):
                        unread.append(f"{cls.__name__}.{f.name}")
        assert unread == []

    def test_missing_file(self):
        with pytest.raises(UsageError):
            parse_config("/nonexistent/run.cfg", [])

    @pytest.mark.parametrize("command, override", [
        ("train", "prune.ratio=1.0"), ("train", "prune.max_ratio=0.2"),
        ("train", "prune.beta=1.5"), ("train", "neuron.lambda=0"),
        ("train", "train.lr=0"), ("train", "train.lr_schedule=step"),
        ("train", "train.batch=0"), ("train", "net.arch=foo:3"),
        ("train", "net.arch=dense:0"), ("train", "train.epochs=-3"),
        ("train", "prune.score=spike_awre"),
        ("train", "prune.enabled=false prune.ratio=1.0"),
        ("train", "dataset.synthetic.classes=1"),
        ("train", "dataset.synthetic.dim=0"), ("train", "score.layers=1,1"),
        ("train", "dataset.synthetic.noise=-1"),
        ("train", "dataset.synthetic.noise=3"),
        ("gen-data", "dataset.path=x.spkt dataset.synthetic.n=3"),
        ("gen-data", "dataset.path=x.spkt dataset.synthetic.noise=1.5"),
        ("analyze", "prune.ratio=1.0"), ("analyze", "prune.ratio=0.995"),
        ("train", "neuron.threshold=nan"), ("train", "neuron.threshold=inf"),
        ("train", "neuron.surrogate_width=nan"),
        ("train", "neuron.surrogate_width=inf"), ("train", "train.lr=nan"),
        ("train", "train.lr=inf"), ("train", "train.weight_decay=nan"),
        ("analyze", "neuron.threshold=nan"),
        ("analyze", "neuron.surrogate_width=inf"),
        ("train", "dataset.synthetic.t=0"), ("train", "dataset.synthetic.t=-1"),
        ("train", "dataset.synthetic.dim=-2"),
        ("gen-data", "dataset.path=x.spkt dataset.synthetic.t=-1")])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys,
                                               monkeypatch, command, override):
        """An out-of-range config value exits 2 with one error line, also
        for a prune.* key of a run that does not prune.  `override` holds
        one or more space-separated overrides; a size key below 1 is named."""
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, BASE_CFG + "prune.enabled = true\n")
        if command == "analyze":  # analyze reads the weights first
            save_weights(Network.from_arch("dense:12,dense:4", (16,)),
                         "dense:12,dense:4", (16,), str(tmp_path / "w.npz"))
        args = [command, "-c", cfg, *(a for o in override.split()
                                      for a in ("-o", o)),
                "-o", f"out.metrics={tmp_path}/m.csv",
                "-o", f"out.weights={tmp_path}/w.npz",
                "-o", f"out.report={tmp_path}/r.txt"]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid config: ")
        key = override.split()[-1].partition("=")[0]
        if key in ("dataset.synthetic.t", "dataset.synthetic.dim"):
            assert err[0].startswith(f"error: invalid config: {key} must be >= 1")

    def test_score_layers(self):
        assert parse_score_layers("last", 3) == (2,)
        assert parse_score_layers("all", 3) == (0, 1, 2)
        assert parse_score_layers("0,2", 3) == (0, 2)
        with pytest.raises(UsageError):
            parse_score_layers("5", 3)
        with pytest.raises(UsageError):
            parse_score_layers("first", 3)
        with pytest.raises(UsageError):
            parse_score_layers("1,1", 3)


class TestTrainCommand:
    def run_train(self, tmp_path, extra=""):
        return main(train_args(tmp_path, tmp_path, extra))

    def test_writes_metrics_and_weights(self, tmp_path, capsys):
        assert self.run_train(tmp_path) == EXIT_OK
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,ratio,processed")
        assert len(lines) == 4  # header + one row per epoch
        net = load_weights(str(tmp_path / "w.npz"))
        assert len(net) == 2

    def test_rerun_identical_except_wall(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            assert self.run_train(d, "prune.enabled = true\nprune.ratio = 0.4\n") == EXIT_OK
        rows_a = (a / "m.csv").read_text().splitlines()
        rows_b = (b / "m.csv").read_text().splitlines()
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            ca, cb = ra.split(","), rb.split(",")
            del ca[5], cb[5]  # wall-clock column
            assert ca == cb
        na = load_weights(str(a / "w.npz"))
        nb = load_weights(str(b / "w.npz"))
        for wa, wb in zip(na.weights, nb.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_missing_dataset_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "net.arch = dense:4\n")
        assert main(["train", "-c", cfg]) == EXIT_USAGE
        assert "dataset.path" in capsys.readouterr().err

    def test_unknown_override_is_usage_error(self, tmp_path, capsys):
        for key in ("bogus.key", "workers"):
            assert main(["train", "-o", f"{key}=1"]) == EXIT_USAGE
            assert f"unknown config key: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content", [("junk.spkt", b"not spkt"),
                                               ("short.spkt", b"SPKT\x01"),
                                               ("absent.spkt", None),
                                               ("rank0.spkt", b"SPKT\x01\x00"
                                                b"\x00\x00\x01")],
                             ids=["junk", "truncated-header", "missing",
                                  "rank-0"])
    def test_bad_dataset_file_is_usage_error(self, tmp_path, capsys, name,
                                             content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        assert main(["train", "-o", f"dataset.path={path}"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot read dataset {path}: ")

    @pytest.mark.parametrize("kind", ["spkt", "idx"])
    def test_trailing_bytes_are_usage_error(self, tmp_path, capsys, kind):
        """Bytes past the declared end of a dataset file: one error line that
        counts them, and exit 2."""
        if kind == "spkt":
            path = tmp_path / "long.spkt"
            write_spike_file(DatasetHandle(np.zeros((5, 2, 4)), np.zeros(5),
                                           time_steps=2), str(path))
            path.write_bytes(path.read_bytes() + bytes(7))
            extra = 7
        else:
            images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
            images.write_bytes(bytes([0, 0, 8, 2]) + struct.pack(">2I", 5, 4)
                               + bytes(20 + 4))
            labels.write_bytes(bytes([0, 0, 8, 1]) + struct.pack(">I", 5)
                               + bytes(5))
            path, extra = f"{images}:{labels}", 4
        assert main(["train", "-o", f"dataset.path={path}",
                     "-o", f"out.metrics={tmp_path}/m.csv",
                     "-o", f"out.weights={tmp_path}/w.npz"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot read dataset {path}: {extra} trailing "
                       f"byte(s) after the {kind.upper()} "
                       f"{'label block' if kind == 'spkt' else 'payload'}"]


    def test_update_past_float32_range_exits_three(self, tmp_path, capsys):
        """An update that takes a weight past float32's range is divergence:
        exit 3 with one error line naming the epoch, and no output files."""
        assert main(["train", "-o", "dataset.synthetic.n=40",
                     "-o", "train.epochs=2", "-o", "train.lr=1e300",
                     "-o", "neuron.threshold=0.5",
                     "-o", f"out.metrics={tmp_path}/m.csv",
                     "-o", f"out.weights={tmp_path}/w.npz"]) == EXIT_DIVERGED
        assert capsys.readouterr().err.splitlines() == [
            "error: training diverged: an update in epoch 1 took a weight "
            "past float32's range"]
        assert not (tmp_path / "m.csv").exists()
        assert not (tmp_path / "w.npz").exists()

    @pytest.mark.parametrize("sadp_log", [None, "error"])
    def test_warnings_show_unless_quieted(self, tmp_path, sadp_log):
        """In a fresh process, a run whose last epoch selects nothing and
        whose smoothing floor is infeasible prints both WARNING lines by
        default; SADP_LOG=error prints neither."""
        env = dict(os.environ, PYTHONPATH=str(Path(sadp.__file__).parents[1]))
        env.pop("SADP_LOG", None)
        if sadp_log is not None:
            env["SADP_LOG"] = sadp_log
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from sadp import cli; sys.exit(cli.main(sys.argv[1:]))",
             "train", "-o", "dataset.synthetic.n=200", "-o", "train.epochs=5",
             "-o", "prune.enabled=true", "-o", "prune.ratio=0.9",
             "-o", f"out.metrics={tmp_path}/m.csv",
             "-o", f"out.weights={tmp_path}/w.npz"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("trained 5 epochs;")
        warnings = ["WARNING sadp.training: epoch 5: no examples selected",
                    "WARNING sadp.pruning: smoothing constant"]
        if sadp_log is None:
            assert all(w in proc.stderr for w in warnings), proc.stderr
        else:
            assert proc.stderr == ""


def idx_bytes(dims, payload, rank=None):
    """An IDX u8 file's bytes, with a header that declares `rank` dims."""
    rank = len(dims) if rank is None else rank
    return (bytes([0, 0, 8, rank]) + struct.pack(f">{len(dims)}I", *dims)
            + bytes(payload))


def idx_pair(tmp_path, n=50, side=8, classes=4):
    """Seeded n x side x side images and their labels, as an IDX pair."""
    rng = np.random.default_rng(3)
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(idx_bytes((n, side, side), rng.integers(
        0, 256, n * side * side, dtype=np.uint8)))
    labels.write_bytes(idx_bytes((n,), (np.arange(n) % classes).astype(np.uint8)))
    return f"{images}:{labels}"


class TestIdxDataset:
    """Static IDX images, encoded per encode.mode over dataset.synthetic.t
    steps, through the same 80/20 split as SPKT data."""

    @pytest.mark.parametrize("mode", ["direct", "rate"])
    def test_load_encodes_each_image_over_t_steps(self, tmp_path, mode):
        path = idx_pair(tmp_path)
        cfg = parse_config(None, [f"dataset.path={path}", f"encode.mode={mode}",
                                  "dataset.synthetic.t=3"])
        train, test = load_dataset(cfg)
        assert (train.n, test.n, train.time_steps) == (40, 10, 3)
        assert train.input_shape == test.input_shape == (8, 8)
        np.testing.assert_array_equal(
            np.concatenate([train.labels, test.labels]), np.arange(50) % 4)
        data = np.concatenate([train.data, test.data])
        pixels = np.frombuffer((tmp_path / "images.idx").read_bytes()[16:],
                               dtype=np.uint8).reshape(50, 1, 8, 8) / 255.0
        if mode == "direct":
            np.testing.assert_array_equal(data, np.repeat(pixels, 3, axis=1))
        else:
            assert set(np.unique(data)) == {0.0, 1.0}
            again = np.concatenate([h.data for h in load_dataset(cfg)])
            np.testing.assert_array_equal(data, again)  # seeded by seed.init
            assert abs(data.mean() - pixels.mean()) < 0.02

    def test_negative_time_steps_name_the_key(self, tmp_path, capsys):
        """A negative dataset.synthetic.t is the config's fault, not the
        file's: one error line names the key."""
        assert main(["train", "-o", f"dataset.path={idx_pair(tmp_path)}",
                     "-o", "dataset.synthetic.t=-1",
                     "-o", f"out.metrics={tmp_path}/m.csv",
                     "-o", f"out.weights={tmp_path}/w.npz"]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid config: dataset.synthetic.t must be >= 1, got -1"]

    @pytest.mark.parametrize("arch", ["dense:12,dense:4", "conv:4x3x3p1,dense:4"])
    @pytest.mark.parametrize("mode", ["direct", "rate"])
    def test_train_runs(self, tmp_path, capsys, mode, arch):
        args = ["train", "-o", f"dataset.path={idx_pair(tmp_path)}",
                "-o", f"encode.mode={mode}", "-o", f"net.arch={arch}",
                "-o", "dataset.synthetic.t=3", "-o", "train.epochs=2",
                "-o", "train.batch=16", "-o", "neuron.threshold=0.5",
                "-o", f"out.metrics={tmp_path}/m.csv",
                "-o", f"out.weights={tmp_path}/w.npz"]
        assert main(args) == EXIT_OK
        rows = (tmp_path / "m.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["40", "40"]
        net = load_weights(str(tmp_path / "w.npz"))
        assert net.specs[0].input_shape == ((8, 8) if arch.startswith("dense")
                                            else (1, 8, 8))

    @pytest.mark.parametrize("arch", ["dense:12,dense:4",
                                      "conv:4x3x3p1,conv:4x3x3,dense:4"])
    def test_stride_zero_images_run_as_their_copies(self, tmp_path, arch):
        """A directly encoded image set is a stride-0 view over T.  Pruned
        training (float32 engine, every layer scored) and exact_grad_norms
        (float64) on it give, bit for bit, what the same images materialized
        as T copies give."""
        cfg = parse_config(None, [f"dataset.path={idx_pair(tmp_path)}",
                                  f"net.arch={arch}", "dataset.synthetic.t=3",
                                  "neuron.threshold=0.5"])
        view = load_dataset(cfg)
        assert view[0].data.strides[1] == 0
        copies = tuple(DatasetHandle(np.repeat(h.data[:, :1], 3, axis=1),
                                     h.labels, time_steps=3) for h in view)
        results = []
        for train, test in (view, copies):
            net = cli.build_network(cfg, train)
            ncfg = neuron_config(cfg, train.time_steps)
            layers = tuple(range(len(net)))
            pcfg = PruneConfig(ratio=0.5, max_ratio=0.7, smoothing_constant=0.3,
                               score_layers=layers)
            rows = run_training(net, train, test, ncfg, pcfg,
                                TrainConfig(epochs=3, batch_size=16, lr=0.1))
            results.append(([dataclasses.replace(r, wall_s=0.0) for r in rows],
                            net.weights,
                            oracle.exact_grad_norms(net, train.data, train.labels,
                                                    ncfg, layers)))
        (rows, weights, report), (rows_c, weights_c, report_c) = results
        assert rows == rows_c
        for w, w_c in zip(weights, weights_c):
            np.testing.assert_array_equal(w, w_c)
        for field in dataclasses.fields(report):
            np.testing.assert_array_equal(getattr(report, field.name),
                                          getattr(report_c, field.name),
                                          err_msg=field.name)


def spkt_bytes(version=1, dtype=0, dims=(5, 2, 4), payload=None, labels=5):
    """An SPKT file's bytes; payload defaults to dims' zeros."""
    count = int(np.prod(dims))
    payload = bytes(count) if payload is None else payload
    return (b"SPKT" + struct.pack("<HBB", version, dtype, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + payload
            + struct.pack(f"<{labels}I", *range(labels)))


class TestInputErrors:
    """Every malformed setting or dataset file exits 2 with one error line."""

    # case: (reason, the images or SPKT file, the labels file or None)
    DATASET = {
        "idx-bad-magic": ("bad IDX magic", bytes([1, 0, 8, 2]) + bytes(28),
                          idx_bytes((5,), bytes(5))),
        "idx-truncated-dims": ("truncated IDX dimension block",
                               idx_bytes((5,), b"", rank=2),
                               idx_bytes((5,), bytes(5))),
        "idx-label-count": ("label file does not match image count",
                            idx_bytes((5, 4), bytes(20)),
                            idx_bytes((4,), bytes(4))),
        "spkt-version": ("unsupported SPKT version 2", spkt_bytes(version=2),
                         None),
        "spkt-dtype": ("unsupported SPKT dtype 1", spkt_bytes(dtype=1), None),
        "spkt-truncated-payload": ("truncated SPKT payload",
                                   spkt_bytes(payload=bytes(10), labels=0), None),
        "spkt-payload-byte-2": ("SPKT payload bytes must be 0 or 1",
                                spkt_bytes(payload=bytes(39) + b"\x02"), None),
        "spkt-truncated-labels": ("truncated SPKT label block",
                                  spkt_bytes(labels=4), None),
        "spkt-rank-1": ("SPKT data needs rank >= 2 (N, T, ...), got rank 1",
                        spkt_bytes(dims=(5,)), None),
        "spkt-0-time-steps": ("SPKT data needs T >= 1 time steps, got 0",
                              spkt_bytes(dims=(5, 0, 4)), None),
        # Sizes of 2**64 bytes, which an int64 product wraps to 0.
        "spkt-size-past-2**63": ("truncated SPKT payload",
                                 spkt_bytes(dims=(1, 2**32, 2**32), payload=b"",
                                            labels=1), None),
        "idx-size-past-2**63": (f"payload length 0 != declared {2**64}",
                                idx_bytes((1, 65536, 65536, 65536, 65536), b""),
                                idx_bytes((1,), bytes(1))),
    }

    @pytest.mark.parametrize("case", list(DATASET))
    def test_malformed_dataset_file(self, tmp_path, capsys, case):
        reason, data, labels = self.DATASET[case]
        path = tmp_path / "data"
        path.write_bytes(data)
        if labels is not None:
            (tmp_path / "labels").write_bytes(labels)
            path = f"{path}:{tmp_path / 'labels'}"
        assert main(["train", "-o", f"dataset.path={path}",
                     "-o", f"out.metrics={tmp_path}/m.csv",
                     "-o", f"out.weights={tmp_path}/w.npz"]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read dataset {path}: {reason}"]

    @pytest.mark.parametrize("args, message", [
        (["-o", "prune.enabled=maybe"], "cannot parse boolean value 'maybe'"),
        (["-o", "train.epochs"], "override must be key=value, got 'train.epochs'"),
        (["-o", "encode.mode=poisson"], "encode.mode must be direct or rate"),
        (["-c", "{cfg}"], "{cfg}:2: expected key=value")],
        ids=["bad-boolean", "override-without-equals", "encode-mode",
             "config-line-without-equals"])
    def test_malformed_setting(self, tmp_path, capsys, args, message):
        cfg = write_config(tmp_path, "train.epochs = 2\ntrain.batch 16\n")
        assert main(["train", *(a.format(cfg=cfg) for a in args)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: {message.format(cfg=cfg)}"]


class TestAllocator:
    """main, the process entry point, keeps freed heap pages in the process
    through glibc's mallopt; nothing else changes."""

    def test_main_sets_both_thresholds_before_the_command(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1
        monkeypatch.setattr(cli, "_libc",
                            lambda: types.SimpleNamespace(mallopt=mallopt))
        monkeypatch.setitem(cli.COMMANDS, "train",
                            lambda cfg: calls.append("train") or EXIT_OK)
        assert main(["train"]) == EXIT_OK
        # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h
        assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20), "train"]

    @pytest.mark.parametrize("libc", [
        types.SimpleNamespace(),
        types.SimpleNamespace(mallopt=lambda param, value: int(param != -3))],
        ids=["no-mallopt", "rejects-mmap-threshold"])
    def test_runs_on_without_the_setting(self, tmp_path, monkeypatch, caplog,
                                         libc):
        """Without mallopt, or with a value rejected, a run trains with the
        allocator's defaults and says so in one DEBUG record."""
        monkeypatch.setattr(cli, "_libc", lambda: libc)
        caplog.set_level(logging.DEBUG, logger="sadp")
        assert main(train_args(tmp_path, tmp_path)) == EXIT_OK
        fallbacks = [r for r in caplog.records if r.levelno == logging.DEBUG
                     and "allocator left at its default" in r.getMessage()]
        assert len(fallbacks) == 1

    def test_same_output_with_and_without_the_setting(self, tmp_path):
        """A pruned run writes the same metrics (without wall_s) and
        bit-identical weights with the setting stubbed out and with it
        applied, each in a fresh process."""
        env = dict(os.environ, SADP_LOG="debug",
                   PYTHONPATH=str(Path(sadp.__file__).parents[1]))
        wall = METRICS_HEADER.split(",").index("wall_s")
        outputs = {}
        for name, stub in (("default", "cli._keep_freed_pages = lambda: None; "),
                           ("kept", "")):
            out = tmp_path / name
            out.mkdir()
            code = f"import sys; from sadp import cli; {stub}" \
                   "sys.exit(cli.main(sys.argv[1:]))"
            proc = subprocess.run(
                [sys.executable, "-c", code,
                 *train_args(tmp_path, out, "prune.enabled = true\n")],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == EXIT_OK, proc.stderr
            if name == "kept" and platform.libc_ver()[0] == "glibc":
                assert "allocator left at its default" not in proc.stderr
            rows = [[v for i, v in enumerate(line.split(",")) if i != wall]
                    for line in (out / "m.csv").read_text().splitlines()]
            with np.load(out / "w.npz") as z:
                arrays = {k: (z[k].dtype, z[k].shape, z[k].tobytes())
                          for k in z.files}
            outputs[name] = rows, arrays
        assert outputs["default"] == outputs["kept"]


class TestDataFitsNet:
    SMALL = ["-o", "dataset.synthetic.n=200", "-o", "dataset.synthetic.dim=16",
             "-o", "net.arch=dense:8,dense:4", "-o", "train.epochs=1"]

    ERRORS = {
        "train-10-classes": "dataset label 9 out of range for 4 output units",
        "analyze-dim-64": "dataset input shape (64,) does not fit layer 0 "
                          "input (16,)",
        "analyze-10-classes": "dataset label 9 out of range for 4 output units",
        "analyze-rank-2-spkt": "dataset of shape (8, 4) is not (N, T, ...) "
                               "spike data"}

    @pytest.mark.parametrize("case", list(ERRORS))
    def test_misfit_is_usage_error(self, tmp_path, capsys, case):
        """Data the net cannot run on exits 2 with one error line before the
        engine runs, for both commands."""
        out = ["-o", f"out.metrics={tmp_path}/m.csv",
               "-o", f"out.weights={tmp_path}/w.npz",
               "-o", f"out.report={tmp_path}/r.txt"]
        if case == "train-10-classes":
            args = ["train"] + self.SMALL + out
        else:
            assert main(["train", "-o", "dataset.synthetic.classes=4"]
                        + self.SMALL + out) == EXIT_OK
            capsys.readouterr()
            extra = {"analyze-dim-64": ["-o", "dataset.synthetic.classes=4",
                                        "-o", "dataset.synthetic.dim=64"],
                     "analyze-10-classes": [],
                     "analyze-rank-2-spkt": ["-o", f"dataset.path={tmp_path}/d.spkt"]}
            if case == "analyze-rank-2-spkt":
                write_spike_file(DatasetHandle(np.zeros((10, 4)),
                                               np.zeros(10, dtype=int),
                                               time_steps=4),
                                 str(tmp_path / "d.spkt"))
            args = ["analyze"] + self.SMALL + extra[case] + out
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: {self.ERRORS[case]}"]


    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_empty_training_split_is_usage_error(self, tmp_path, capsys,
                                                 command):
        """A dataset too small to leave a training example after the 80/20
        split exits 2 with one error line, before any weights are read."""
        spkt = tmp_path / "one.spkt"
        write_spike_file(DatasetHandle(np.ones((1, 4, 16)),
                                       np.zeros(1, dtype=int), time_steps=4),
                         str(spkt))
        args = [command, "-o", f"dataset.path={spkt}",
                "-o", f"out.metrics={tmp_path}/m.csv",
                "-o", f"out.weights={tmp_path}/w.npz",
                "-o", f"out.report={tmp_path}/r.txt"]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: dataset {spkt} of 1 example(s) leaves no training "
            "example after the 80/20 split"]

    @pytest.mark.parametrize("mode", ["direct", "rate"])
    def test_empty_idx_pair_is_usage_error(self, tmp_path, capsys, mode):
        """An IDX pair of no images gets the same line as a too-small SPKT
        file, whichever encoding would have run."""
        path = idx_pair(tmp_path, n=0)
        assert main(["train", "-o", f"dataset.path={path}",
                     "-o", f"encode.mode={mode}",
                     "-o", f"out.metrics={tmp_path}/m.csv",
                     "-o", f"out.weights={tmp_path}/w.npz"]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: dataset {path} of 0 example(s) leaves no training "
            "example after the 80/20 split"]


class TestSpikeDataBytes:
    def test_spike_data_is_held_once_as_uint8(self, tmp_path):
        """An SPKT file's N x T x D spikes load as N * T * D bytes of train
        and test data, and reading the file makes no widened copy: the
        reader's peak stays within twice the file's size."""
        n, t, d = 500, 8, 64
        spkt = tmp_path / "d.spkt"
        write_spike_file(gen_synthetic(10, n, t, d, 0.2, seed=0), str(spkt))
        tracemalloc.start()
        try:
            handle = read_spike_file(str(spkt))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert handle.data.dtype == np.uint8
        assert peak <= 2 * spkt.stat().st_size
        train, test = load_dataset(parse_config(None, [f"dataset.path={spkt}"]))
        assert train.data.nbytes + test.data.nbytes == n * t * d

    def test_static_images_are_held_once(self, tmp_path):
        """An IDX pair of N images of D pixels loads, encoded directly over
        T = 8 steps, as about N * D float64 values, not N * T * D."""
        n, side = 500, 12
        path = idx_pair(tmp_path, n=n, side=side)
        cfg = parse_config(None, [f"dataset.path={path}", "dataset.synthetic.t=8"])
        tracemalloc.start()
        try:
            train, test = load_dataset(cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (train.time_steps, train.input_shape) == (8, (side, side))
        images = n * side * side * 8
        assert held < 1.2 * images and peak < 1.5 * images


class TestGenDataCommand:
    def test_round_trip_through_train(self, tmp_path, capsys):
        spkt = str(tmp_path / "d.spkt")
        args = ["gen-data", "-o", f"dataset.path={spkt}",
                "-o", "dataset.synthetic.n=50", "-o", "dataset.synthetic.classes=5",
                "-o", "dataset.synthetic.dim=12", "-o", "dataset.synthetic.t=3"]
        assert main(args) == EXIT_OK
        handle = read_spike_file(spkt)
        assert handle.n == 50
        assert handle.time_steps == 3
        assert handle.input_shape == (12,)

    def test_requires_path_and_count(self, tmp_path, capsys):
        assert main(["gen-data"]) == EXIT_USAGE
        assert main(["gen-data", "-o", f"dataset.path={tmp_path}/x.spkt"]) == EXIT_USAGE

    def test_data_draws_do_not_share_the_weight_stream(self):
        """seed.init seeds the weights and, through a stream of its own, the
        data: layer 0's weight signs do not follow the prototype bits, as
        they would if both drew from default_rng(seed.init)."""
        cfg = parse_config(None, ["dataset.synthetic.n=200",
                                  "dataset.synthetic.dim=64",
                                  "net.arch=dense:64,dense:10"])
        train, _ = load_dataset(cfg)
        w0 = cli.build_network(cfg, train).weights[0].ravel()
        bits = train.prototypes.ravel()[:w0.size] == 1.0
        assert float(np.mean((w0 < 0) == bits)) < 0.6


class TestAnalyzeCommand:
    @staticmethod
    def common_args(tmp_path):
        cfg = write_config(tmp_path, BASE_CFG)
        return ["-c", cfg, "-o", f"out.metrics={tmp_path}/m.csv",
                "-o", f"out.weights={tmp_path}/w.npz",
                "-o", f"out.report={tmp_path}/r.txt"]

    def trained(self, tmp_path, capsys):
        common = self.common_args(tmp_path)
        assert main(["train"] + common) == EXIT_OK
        capsys.readouterr()
        return common

    def test_reports_correlations_and_variances(self, tmp_path, capsys):
        common = self.trained(tmp_path, capsys)
        assert main(["analyze"] + common) == EXIT_OK
        out = capsys.readouterr().out
        assert "pearson" in out
        report = (tmp_path / "r.txt").read_text()
        for name in ("spike_aware", "loss", "uniform"):
            assert name in report

    def test_leaves_the_training_metrics_alone(self, tmp_path, capsys):
        """train and analyze of one config share out.metrics; analyze writes
        its rows to out.report only, so train's file stays byte for byte."""
        common = self.trained(tmp_path, capsys)
        metrics = (tmp_path / "m.csv").read_bytes()
        assert main(["analyze"] + common) == EXIT_OK
        assert (tmp_path / "m.csv").read_bytes() == metrics
        assert "method,variance\n" in (tmp_path / "r.txt").read_text()

    def test_float64_weights_and_float64_analyze(self, tmp_path, capsys):
        """train runs a float32 engine but writes float64 weights; analyze
        runs the float64 engine, so its report at seed 0 on the initial
        weights is byte for byte the float64 one; a float32 analyze of the
        same weights differs in the variance rows."""
        common = self.common_args(tmp_path)
        assert main(["train"] + common) == EXIT_OK
        with np.load(tmp_path / "w.npz") as z:
            assert [z[f"w{i}"].dtype for i in range(2)] == [np.float64] * 2
        assert main(["train", "-o", "train.epochs=0"] + common) == EXIT_OK
        assert main(["analyze"] + common) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "r.txt").read_text() == (
            "examples: 64\n"
            "pearson(spike_aware_score, grad_norm) = 0.984844\n"
            "pearson(loss, grad_norm) = -0.094186\n"
            "method,variance\n"
            "spike_aware,0.00612945335\n"
            "loss,0.007700361786\n"
            "uniform,0.007601730176\n")

    def test_one_pass_without_per_example_gradients(self, tmp_path, capsys,
                                                    monkeypatch):
        """analyze makes one forward pass per chunk of examples and forms no
        per-example gradient."""
        common = self.trained(tmp_path, capsys)
        forward, batches = oracle.forward, []

        def counted(net, data, *args, **kwargs):
            batches.append(data.shape[0])
            return forward(net, data, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("analyze formed per-example gradients")
        monkeypatch.setattr(oracle, "per_example_gradients", forbidden)
        monkeypatch.setattr(oracle, "forward", counted)
        monkeypatch.setattr(oracle, "NORM_CHUNK", 20)
        assert main(["analyze"] + common) == EXIT_OK
        assert batches == [16, 16, 16, 16]  # N = 64 in four chunks

    def test_last_layer_scores_and_all_layer_correlation(self, tmp_path, capsys):
        """At the default score.layers=last the Pearson line still compares
        the all-layer score with the full norm, while the spike_aware
        variance row uses last-layer scores."""
        common = self.trained(tmp_path, capsys)
        assert main(["analyze"] + common) == EXIT_OK
        lines = (tmp_path / "r.txt").read_text().splitlines()

        cfg = parse_config(common[1], [])
        assert cfg["score.layers"] == "last"
        train, _ = load_dataset(cfg)
        net = load_weights(str(tmp_path / "w.npz"))
        ncfg = neuron_config(cfg, train.time_steps)
        bt = backward_bptt(net, *forward(net, train.data, train.labels, ncfg),
                           ncfg)
        norms = np.sqrt(sum((g.reshape(train.n, -1) ** 2).sum(axis=1)
                            for g in oracle.per_example_gradients(bt)))
        all_scores = spike_aware_score(bt, (0, 1))
        expected = oracle.pearson(all_scores, norms)
        assert lines[1] == f"pearson(spike_aware_score, grad_norm) = {expected:.6f}"

        last = spike_aware_score(bt, (1,))
        target = int(round((1.0 - cfg["prune.ratio"]) * train.n))
        p = smooth_probabilities(last, target, cfg["prune.beta"]).probabilities
        var = oracle.variance_formula(norms, p, train.n)
        assert lines[4] == f"spike_aware,{var:.10g}"

    def test_zero_probability_with_nonzero_norm_is_infinite(self, tmp_path,
                                                           capsys, monkeypatch):
        """The variance rows use the probabilities the method gives: with no
        floor, an example that scores 0 gets p = 0, and its nonzero norm makes
        that method's variance infinite."""
        common = self.trained(tmp_path, capsys)
        exact = oracle.exact_grad_norms

        def one_zero_score(*args, **kwargs):
            rep = exact(*args, **kwargs)
            assert rep.full_norms[0] > 0
            rep.scores[0] = 0.0
            return rep
        monkeypatch.setattr(oracle, "exact_grad_norms", one_zero_score)
        assert main(["analyze", "-o", "prune.beta=0"] + common) == EXIT_OK
        rows = (tmp_path / "r.txt").read_text().splitlines()[4:]
        assert rows[0] == "spike_aware,inf"
        for row in rows[1:]:
            assert np.isfinite(float(row.split(",")[1]))

    def test_silent_net_is_usage_error(self, tmp_path, capsys):
        """A net that never spikes has constant scores and norms, so no
        correlation exists: one error line and exit 2, not a traceback."""
        common = ["-o", "dataset.synthetic.n=40",
                  "-o", f"out.metrics={tmp_path}/m.csv",
                  "-o", f"out.weights={tmp_path}/w.npz",
                  "-o", f"out.report={tmp_path}/r.txt"]
        assert main(["train", "-o", "train.epochs=1"] + common) == EXIT_OK
        capsys.readouterr()
        assert main(["analyze"] + common) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot correlate constant scores or gradient norms "
            "(does the net spike?)"]
        assert not (tmp_path / "r.txt").exists()

    def test_single_training_example_is_usage_error(self, tmp_path, capsys):
        """Two examples leave one after the 80/20 split, and one example
        has no correlation: one error line and exit 2, not a traceback."""
        spkt = tmp_path / "two.spkt"
        write_spike_file(DatasetHandle(np.ones((2, 4, 16)),
                                       np.zeros(2, dtype=int), time_steps=4),
                         str(spkt))
        save_weights(Network.from_arch("dense:12,dense:4", (16,)),
                     "dense:12,dense:4", (16,), str(tmp_path / "w.npz"))
        args = ["analyze", "-o", f"dataset.path={spkt}", "-o", "prune.ratio=0",
                "-o", f"out.metrics={tmp_path}/m.csv",
                "-o", f"out.weights={tmp_path}/w.npz",
                "-o", f"out.report={tmp_path}/r.txt"]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: analyze needs at least 2 training examples to correlate, "
            "got 1"]
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("case", ["junk", "bad-zip", "no-w0", "nan",
                                      "2-d-shape", "fractional-shape",
                                      "complex", "extra-w2"])
    def test_malformed_weights_file_is_usage_error(self, tmp_path, capsys,
                                                    case):
        """Weights read from a file pass the checks of every Network's
        weights, so a NaN or complex weight, too, ends in one error line; an
        input shape that is not a 1-D integer array is not cut to one, and
        an array beyond the arch's layers is not ignored."""
        path = tmp_path / "w.npz"
        if case == "junk":
            path.write_bytes(b"\x93junk!!!")
        elif case == "bad-zip":
            path.write_bytes(b"PK\x03\x04garbage")
        elif case == "no-w0":
            np.savez(path, arch=np.array("dense:12,dense:4"),
                     input_shape=np.array([16]))
        elif case == "2-d-shape":
            np.savez(path, arch=np.array("dense:8,dense:4"),
                     input_shape=np.array([[8, 1], [1, 1]]))
        elif case == "fractional-shape":
            np.savez(path, arch=np.array("dense:12,dense:4"),
                     input_shape=np.array([16.7]), w0=np.zeros((12, 16)),
                     w1=np.zeros((4, 12)))
        elif case == "extra-w2":
            np.savez(path, arch=np.array("dense:12,dense:4"),
                     input_shape=np.array([16]), w0=np.zeros((12, 16)),
                     w1=np.zeros((4, 12)), w2=np.zeros((4, 4)))
        elif case == "complex":
            np.savez(path, arch=np.array("dense:12,dense:4"),
                     input_shape=np.array([16]),
                     w0=np.full((12, 16), 1 + 1j), w1=np.zeros((4, 12)))
        else:
            np.savez(path, arch=np.array("dense:12,dense:4"),
                     input_shape=np.array([16]), w0=np.full((12, 16), np.nan),
                     w1=np.zeros((4, 12)))
        assert main(["analyze"] + self.common_args(tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot read weights {path}: ")

    def test_a_huge_input_shape_reports_the_real_size_mismatch(self, tmp_path,
                                                               capsys):
        """A dense layer on a (2**32, 2**32) input has 2**64 inputs: sized
        exactly, not wrapped to 0 in int64 and refused as having none."""
        path = tmp_path / "w.npz"
        np.savez(path, arch=np.array("dense:4"),
                 input_shape=np.array([2**32, 2**32]),
                 w0=np.zeros((4, 16)))
        assert main(["analyze"] + self.common_args(tmp_path)) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read weights {path}: weight shape (4, 16) != "
            f"expected (4, {2**64})"]

    def test_missing_weights_file_is_usage_error(self, tmp_path, capsys):
        common = self.common_args(tmp_path)
        assert main(["analyze"] + common) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot read weights {tmp_path}/w.npz: "
                       "No such file or directory"]


class TestVerifyCommand:
    def run_verify(self, tmp_path):
        return main(["verify", "-o", f"out.report={tmp_path}/r.txt",
                     "-o", f"out.metrics={tmp_path}/m.csv"])

    def test_passes_with_one_line_per_check(self, tmp_path, capsys):
        assert self.run_verify(tmp_path) == EXIT_OK
        lines = (tmp_path / "r.txt").read_text().splitlines()
        n = len(verify.CHECKS)
        expected = [f"PASS {name}" for name in verify.CHECKS]
        assert [line.split(":")[0] for line in lines] == \
            expected + [f"ALL CHECKS PASSED ({n}/{n})"]
        assert not (tmp_path / "m.csv").exists()

    def test_monte_carlo_checks_share_one_run(self, monkeypatch):
        """Both Monte-Carlo checks read one 20,000-draw run per seed."""
        calls, stats = [], oracle.estimator_stats

        def counted(*args, **kwargs):
            calls.append(1)
            return stats(*args, **kwargs)
        monkeypatch.setattr(oracle, "estimator_stats", counted)
        verify._mc_run.cache_clear()
        for _ in range(2):
            assert verify.check_estimator_unbiased(0)[0]
            assert verify.check_variance_formula(0)[0]
        assert calls == [1]

    def test_failed_check_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CHECKS", {
            "stub-pass": lambda seed=0: (True, "always passes"),
            "forced-failure": lambda seed=0: (False, "always fails")})
        assert self.run_verify(tmp_path) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL forced-failure: always fails" in out
        assert "SOME CHECKS FAILED (1/2)" in out
