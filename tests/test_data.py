import os
import struct
import tracemalloc

import numpy as np
import pytest

from sadp import data as data_module
from sadp.data import (DatasetHandle, FormatError, RangeError, MetricsRow,
                       METRICS_HEADER, atomic_write_bytes, encode, gen_synthetic,
                       gen_synthetic_split, load_idx,
                       nearest_prototype_accuracy, read_spike_file,
                       write_metrics, write_spike_file)


def idx_bytes(dims, payload, dtype=0x08, kind=None):
    rank = len(dims)
    magic = bytes([0, 0, dtype, rank])
    return magic + struct.pack(f">{rank}I", *dims) + payload


class TestIdx:
    def test_two_image_fixture(self, tmp_path):
        payload = bytes(range(256)) * 2 + bytes(28 * 28 * 2 - 512)
        raw = idx_bytes((2, 28, 28), payload[:28 * 28 * 2])
        p = tmp_path / "imgs.idx"
        p.write_bytes(raw)
        labels = tmp_path / "labels.idx"
        labels.write_bytes(idx_bytes((2,), bytes([1, 0])))
        images, _ = load_idx(str(p), str(labels))
        assert images.shape == (2, 28, 28) and images.dtype == np.float64
        assert images.max() <= 1.0 and images.min() >= 0.0

    def test_with_labels(self, tmp_path):
        imgs = tmp_path / "i.idx"
        labs = tmp_path / "l.idx"
        imgs.write_bytes(idx_bytes((3, 2, 2), bytes(12)))
        labs.write_bytes(idx_bytes((3,), bytes([1, 0, 2])))
        _, labels = load_idx(str(imgs), str(labs))
        np.testing.assert_array_equal(labels, [1, 0, 2])
        assert labels.dtype == np.int64

    def test_wrong_dtype_byte(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(idx_bytes((2, 2, 2), bytes(8), dtype=0x07))
        with pytest.raises(FormatError):
            load_idx(str(p), str(p))

    def test_rank_one_image_file_rejected(self, tmp_path):
        """A label file given as the image file is a format error that names
        its rank, not a dataset of labels."""
        p = tmp_path / "labels.idx"
        p.write_bytes(idx_bytes((3,), bytes([1, 0, 2])))
        with pytest.raises(FormatError, match="rank 1"):
            load_idx(str(p), str(p))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.idx"
        p.write_bytes(idx_bytes((2, 4, 4), bytes(10)))
        with pytest.raises(FormatError):
            load_idx(str(p), str(p))

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "long.idx"
        p.write_bytes(idx_bytes((2, 2, 2), bytes(8)) + bytes(4))
        with pytest.raises(FormatError, match="4 trailing byte"):
            load_idx(str(p), str(p))
        labels = tmp_path / "labels.idx"
        labels.write_bytes(idx_bytes((2,), bytes([1, 0])) + bytes(4))
        p.write_bytes(idx_bytes((2, 2, 2), bytes(8)))
        with pytest.raises(FormatError, match="4 trailing byte"):
            load_idx(str(p), str(labels))


class TestEncode:
    def test_direct_replicates(self):
        """Direct encoding repeats each value over T as a read-only view with
        stride 0 over T, holding each value once."""
        x = np.array([[0.2, 0.9]])
        out = encode(x, "direct", 5)
        assert out.shape == (1, 5, 2) and out.dtype == np.float64
        for t in range(5):
            np.testing.assert_array_equal(out[:, t], x)
        assert out.strides[1] == 0 and not out.flags.writeable
        assert np.shares_memory(out, x)

    def test_rate_zero_intensity_silent(self):
        out = encode(np.zeros((3, 4)), "rate", 10, seed=1)
        assert np.all(out == 0)

    def test_rate_empirical_frequency(self):
        out = encode(np.full((1, 1), 0.5), "rate", 1000, seed=2)
        assert abs(out.mean() - 0.5) <= 4 * np.sqrt(0.25 / 1000)

    def test_rate_deterministic_per_seed(self):
        x = np.random.default_rng(0).random((4, 6))
        spikes = encode(x, "rate", 8, seed=5)
        np.testing.assert_array_equal(spikes, encode(x, "rate", 8, seed=5))
        assert spikes.dtype == np.uint8 and set(np.unique(spikes)) == {0, 1}

    def test_rate_drawn_in_blocks(self):
        """Rate spikes are drawn FLIP_BLOCK examples at a time, N here not a
        multiple of it: the bits are those of one float64 draw over the whole
        (N, T, ...) set, and the peak stays under three times the spikes'
        bytes, where that one draw is eight times them."""
        n = 9 * data_module.FLIP_BLOCK + 7
        x = np.random.default_rng(1).random((n, 8, 8))
        tracemalloc.start()
        try:
            spikes = encode(x, "rate", 8, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * spikes.nbytes
        one_draw = np.random.default_rng(4).random((n, 8, 8, 8)) < x[:, None]
        np.testing.assert_array_equal(spikes, one_draw.view(np.uint8))

    @pytest.mark.parametrize("mode", ["direct", "rate"])
    def test_empty_input_encodes_to_empty(self, mode):
        assert encode(np.zeros((0, 2, 2)), mode, 3).shape == (0, 3, 2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            encode(np.array([[1.5]]), "direct", 2)


class TestSynthetic:
    def test_zero_noise_equals_prototype(self):
        h = gen_synthetic(3, 12, 4, 10, 0.0, seed=0)
        assert h.data.dtype == h.prototypes.dtype == np.uint8
        for i in range(12):
            np.testing.assert_array_equal(h.data[i], h.prototypes[h.labels[i]])

    def test_deterministic_per_seed(self):
        a = gen_synthetic(4, 20, 3, 8, 0.1, seed=7)
        b = gen_synthetic(4, 20, 3, 8, 0.1, seed=7)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_nearest_prototype_accuracy(self):
        h = gen_synthetic(10, 500, 8, 64, 0.05, seed=3)
        acc = nearest_prototype_accuracy(h)
        assert acc > 0.9
        # Mismatches are counted, so uint8's wrapping difference cannot enter.
        wide = DatasetHandle(h.data.astype(np.float64), h.labels, h.time_steps,
                             h.prototypes.astype(np.float64))
        assert nearest_prototype_accuracy(wide) == acc

    def test_flips_drawn_in_blocks(self, monkeypatch):
        """The bit flips are drawn FLIP_BLOCK examples at a time: the peak
        stays under three times the data's bytes, where one float64 draw over
        the whole set is eight times them, and the bits are those of that
        one draw."""
        tracemalloc.start()
        try:
            h = gen_synthetic(10, 2500, 8, 64, 0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * h.data.nbytes
        monkeypatch.setattr(data_module, "FLIP_BLOCK", 2500)
        whole = gen_synthetic(10, 2500, 8, 64, 0.2)
        np.testing.assert_array_equal(h.data, whole.data)
        np.testing.assert_array_equal(h.prototypes, whole.prototypes)

    def test_accuracy_decreases_with_noise(self):
        accs = [nearest_prototype_accuracy(gen_synthetic(6, 400, 6, 32, rho, seed=5))
                for rho in (0.05, 0.2, 0.35, 0.45)]
        assert all(a >= b - 0.02 for a, b in zip(accs, accs[1:]))
        assert accs[0] > accs[-1]

    def test_split_shares_prototypes(self):
        train, test = gen_synthetic_split(5, 50, 20, 4, 16, 0.1, seed=1)
        np.testing.assert_array_equal(train.prototypes, test.prototypes)
        assert train.n == 50 and test.n == 20
        for h in (train, test):
            assert h.data.dtype == np.uint8
            assert set(np.unique(h.data)) == {0, 1}


class TestSpikeFile:
    def test_round_trip(self, tmp_path):
        h = gen_synthetic(4, 30, 5, 12, 0.2, seed=2)
        p = tmp_path / "d.spkt"
        write_spike_file(h, str(p))
        back = read_spike_file(str(p))
        np.testing.assert_array_equal(back.data, h.data)
        np.testing.assert_array_equal(back.labels, h.labels)
        assert back.time_steps == 5
        assert back.data.dtype == np.uint8

    def test_rank5_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        data = (rng.random((3, 2, 1, 4, 4)) < 0.5).astype(float)
        h = DatasetHandle(data=data, labels=np.array([0, 1, 0]), time_steps=2)
        p = tmp_path / "r5.spkt"
        write_spike_file(h, str(p))
        back = read_spike_file(str(p))
        assert back.data.shape == (3, 2, 1, 4, 4)
        np.testing.assert_array_equal(back.data, data)

    def test_corrupted_magic(self, tmp_path):
        h = gen_synthetic(2, 4, 2, 4, 0.0, seed=0)
        p = tmp_path / "c.spkt"
        write_spike_file(h, str(p))
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_spike_file(str(p))

    def test_truncated_payload(self, tmp_path):
        h = gen_synthetic(2, 4, 2, 4, 0.0, seed=0)
        p = tmp_path / "t.spkt"
        write_spike_file(h, str(p))
        p.write_bytes(p.read_bytes()[:20])
        with pytest.raises(FormatError):
            read_spike_file(str(p))

    def test_trailing_bytes_rejected(self, tmp_path):
        h = gen_synthetic(2, 4, 2, 4, 0.0, seed=0)
        p = tmp_path / "long.spkt"
        write_spike_file(h, str(p))
        p.write_bytes(p.read_bytes() + bytes(7))
        with pytest.raises(FormatError, match="7 trailing byte"):
            read_spike_file(str(p))

    def test_rejects_non_binary(self, tmp_path):
        h = DatasetHandle(data=np.array([[0.5]]), labels=np.array([0]),
                          time_steps=1)
        with pytest.raises(ValueError):
            write_spike_file(h, str(tmp_path / "x.spkt"))

    @pytest.mark.parametrize("labels, named", [
        (np.array([-1, 2**32 + 1]), "label -1 "),
        (np.array([0, 2**32 + 1]), f"label {2**32 + 1} "),
        (np.array([0.0, 1.5]), "label 1.5 "), (np.array([np.nan]), "label nan ")])
    def test_rejects_a_label_u32_cannot_hold(self, tmp_path, labels, named):
        """A label outside [0, 2**32), or not an integer, is named and nothing
        is written: as u32 it would wrap or truncate to another label."""
        h = DatasetHandle(data=np.zeros((labels.size, 1, 3)), labels=labels,
                          time_steps=1)
        p = tmp_path / "l.spkt"
        with pytest.raises(ValueError, match=named):
            write_spike_file(h, str(p))
        assert not p.exists()


class TestMetrics:
    def test_header_and_row_format(self, tmp_path):
        row = MetricsRow(epoch=1, ratio=0.25, processed=100, train_loss=1.5,
                         test_acc=0.75, wall_s=0.123456, gamma=0.0,
                         solver_iters=2)
        p = tmp_path / "m.csv"
        write_metrics([row], str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert lines[1] == "1,0.25,100,1.5,0.75,0.123456,0,2"


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_mode_is_what_a_plain_write_gives(self, tmp_path, umask, mode):
        """The written file gets 0o666 less the umask, as open() would give
        it, and the umask itself is left as it was."""
        p = tmp_path / "out.csv"
        old = os.umask(umask)
        try:
            atomic_write_bytes(str(p), b"x\n")
            assert os.umask(umask) == umask
        finally:
            os.umask(old)
        assert p.read_bytes() == b"x\n"
        assert p.stat().st_mode & 0o777 == mode
        assert os.listdir(tmp_path) == ["out.csv"]
