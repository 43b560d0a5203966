"""Checkpoint serialization round trips and failure modes."""

import numpy as np
import pytest

import im2pc.params as P
from im2pc.errors import MalformedFile


def sample_params(rng):
    return [
        P.Parameter("a.weight", rng.normal(size=(3, 4))),
        P.Parameter("a.bias", rng.normal(size=4)),
        P.Parameter("scalar", np.array(-2.5)),
    ]


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        params = sample_params(np.random.default_rng(0))
        path = tmp_path / "m.ckpt"
        P.save_checkpoint(path, params)
        state = P.load_checkpoint(path)
        assert set(state) == {"a.weight", "a.bias", "scalar"}
        for p in params:
            assert state[p.name].tobytes() == p.data.tobytes()

    def test_file_is_deterministic(self, tmp_path):
        params = sample_params(np.random.default_rng(1))
        P.save_checkpoint(tmp_path / "1.ckpt", params)
        P.save_checkpoint(tmp_path / "2.ckpt", params)
        assert (tmp_path / "1.ckpt").read_bytes() == (tmp_path / "2.ckpt").read_bytes()

    def test_restore(self, tmp_path):
        rng = np.random.default_rng(2)
        params = sample_params(rng)
        path = tmp_path / "m.ckpt"
        P.save_checkpoint(path, params)
        fresh = sample_params(np.random.default_rng(3))
        P.restore(fresh, P.load_checkpoint(path))
        for p, q in zip(fresh, params):
            np.testing.assert_array_equal(p.data, q.data)

    def test_buffer_round_trip(self, tmp_path):
        from im2pc.nn_blocks import FeatureNorm

        norm = FeatureNorm("n", 3)
        norm.running_mean = np.array([1.0, 2.0, 3.0])
        norm.running_var = np.array([0.5, 0.25, 4.0])
        path = tmp_path / "m.ckpt"
        P.save_checkpoint(path, norm.named_parameters(), norm.named_buffers())
        fresh = FeatureNorm("n", 3)
        state = P.load_checkpoint(path)
        P.restore(fresh.named_parameters(), state)
        P.restore_buffers(fresh.named_buffers(), state)
        np.testing.assert_array_equal(fresh.running_mean, norm.running_mean)
        np.testing.assert_array_equal(fresh.running_var, norm.running_var)

    def test_restore_buffers_missing_entry(self, tmp_path):
        from im2pc.nn_blocks import FeatureNorm

        norm = FeatureNorm("n", 3)
        path = tmp_path / "m.ckpt"
        P.save_checkpoint(path, norm.named_parameters())
        with pytest.raises(MalformedFile):
            P.restore_buffers(norm.named_buffers(), P.load_checkpoint(path))


class TestFailures:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(MalformedFile):
            P.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, tmp_path, value):
        params = sample_params(np.random.default_rng(4))
        params[0].data[1, 2] = value
        path = tmp_path / "m.ckpt"
        P.save_checkpoint(path, params)
        with pytest.raises(MalformedFile, match="a.weight"):
            P.load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(P.MAGIC + bytes([99]) + b"\x00" * 8)
        with pytest.raises(MalformedFile):
            P.load_checkpoint(path)

    @pytest.mark.parametrize("size", range(4, 9))
    def test_short_header(self, tmp_path, size):
        # the magic alone, or magic + version + part of the record count
        path = tmp_path / "short"
        path.write_bytes((P.MAGIC + bytes([P.VERSION]) + b"\x01\x00\x00\x00")[:size])
        with pytest.raises(MalformedFile):
            P.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        params = sample_params(np.random.default_rng(4))
        path = tmp_path / "m.ckpt"
        P.save_checkpoint(path, params)
        (tmp_path / "cut").write_bytes(path.read_bytes()[:-5])
        with pytest.raises(MalformedFile):
            P.load_checkpoint(tmp_path / "cut")

    def test_trailing_bytes(self, tmp_path):
        params = sample_params(np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        P.save_checkpoint(path, params)
        (tmp_path / "pad").write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(MalformedFile):
            P.load_checkpoint(tmp_path / "pad")

    def test_restore_missing_and_mismatched(self, tmp_path):
        params = sample_params(np.random.default_rng(6))
        path = tmp_path / "m.ckpt"
        P.save_checkpoint(path, params[:2])
        with pytest.raises(MalformedFile):
            P.restore(params, P.load_checkpoint(path))
        state = P.load_checkpoint(path)
        state["a.weight"] = state["a.weight"][:2]
        with pytest.raises(MalformedFile):
            P.restore(params[:2], state)

    def test_duplicate_parameter_names(self):
        class M(P.Module):
            def __init__(self):
                self.a = P.Parameter("x", np.zeros(2))
                self.b = P.Parameter("x", np.zeros(2))

        with pytest.raises(ValueError):
            M().named_parameters()
