import io

import numpy as np
import pytest

from geovid.errors import ParameterError
from geovid.numkit import vlt


def test_roundtrip_f64(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 4, 5))
    path = tmp_path / "t.vlt"
    vlt.save_tensor(path, arr)
    out = vlt.load_tensor(path)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, arr)


def test_roundtrip_f32(tmp_path):
    arr = np.random.default_rng(1).standard_normal((7,)).astype(np.float32)
    path = tmp_path / "t.vlt"
    vlt.save_tensor(path, arr)
    out = vlt.load_tensor(path)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, arr)


def test_wire_format_layout():
    buf = io.BytesIO()
    vlt.write_record(buf, np.array([[1.0, 2.0]], dtype=np.float64))
    raw = buf.getvalue()
    assert raw[:4] == b"VLT1"
    assert raw[4] == 1          # f64 tag
    assert raw[5] == 2          # ndim
    assert int.from_bytes(raw[6:14], "little") == 1
    assert int.from_bytes(raw[14:22], "little") == 2
    assert np.frombuffer(raw[22:], dtype="<f8").tolist() == [1.0, 2.0]


def test_bad_magic_rejected():
    buf = io.BytesIO(b"NOPE" + bytes(20))
    with pytest.raises(ParameterError):
        vlt.read_record(buf)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ParameterError):
        vlt.save_tensor(tmp_path / "x.vlt", np.array([1, 2], dtype=np.int32))


def test_container_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {"b.w": rng.standard_normal((2, 3)), "a.v": rng.standard_normal(4)}
    vlt.save_container(tmp_path / "ckpt", tensors, meta={"note": 1})
    out, meta = vlt.load_container(tmp_path / "ckpt")
    assert meta == {"note": 1}
    assert set(out) == {"a.v", "b.w"}
    for k in tensors:
        np.testing.assert_array_equal(out[k], tensors[k])


def test_container_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {"x": rng.standard_normal((5, 5))}
    vlt.save_container(tmp_path / "c1", tensors)
    vlt.save_container(tmp_path / "c2", tensors)
    assert (tmp_path / "c1" / "weights.vlt").read_bytes() == \
           (tmp_path / "c2" / "weights.vlt").read_bytes()
    assert (tmp_path / "c1" / "manifest.json").read_bytes() == \
           (tmp_path / "c2" / "manifest.json").read_bytes()


def test_container_resave_drops_the_old_manifest_first(tmp_path, monkeypatch):
    # a re-save that fails before its manifest is written must not leave the
    # new weights paired with the old meta
    vlt.save_container(tmp_path / "ckpt", {"a": np.ones(2)}, meta={"run": 1})

    def fail(path, obj):
        raise OSError("disk full")

    monkeypatch.setattr(vlt, "write_json", fail)
    with pytest.raises(OSError):
        vlt.save_container(tmp_path / "ckpt", {"a": np.zeros(2)}, meta={"run": 2})
    monkeypatch.undo()
    with pytest.raises(ParameterError, match="manifest.json"):
        vlt.load_container(tmp_path / "ckpt")


def _header(tag, dims, ndim=None):
    ndim = len(dims) if ndim is None else ndim
    return vlt.MAGIC + bytes([tag, ndim]) + b"".join(d.to_bytes(8, "little") for d in dims)


@pytest.mark.parametrize("raw", [
    _header(1, [2**32, 2**32]),          # element count wraps to 0 in int64
    _header(1, [2**63, 4]),              # byte count beyond any file
    _header(1, [3, 4]) + bytes(8 * 11),  # one f64 short
    _header(0, [], ndim=200),            # ndim past the cap
    _header(1, [5, 5], ndim=3),          # dims cut short
    vlt.MAGIC + b"\x01",                 # header cut short
], ids=["wrapping-dims", "huge-dims", "short-payload", "ndim-cap", "short-dims",
        "short-header"])
def test_corrupt_header_rejected_before_reading(raw):
    with pytest.raises(ParameterError):
        vlt.read_record(io.BytesIO(raw))


def test_trailing_bytes_rejected(tmp_path):
    vlt.save_tensor(tmp_path / "t.vlt", np.ones(3))
    vlt.save_container(tmp_path / "ckpt", {"a": np.ones(2)})
    for path in (tmp_path / "t.vlt", tmp_path / "ckpt" / "weights.vlt"):
        with open(path, "ab") as fh:
            fh.write(b"\x00")
    with pytest.raises(ParameterError):
        vlt.load_tensor(tmp_path / "t.vlt")
    with pytest.raises(ParameterError):
        vlt.load_container(tmp_path / "ckpt")


@pytest.mark.parametrize("raw, named", [
    (b"NOPE" + bytes(20), "bad VLT1 magic"),
    (vlt.MAGIC + b"\x01", "truncated VLT1 header"),
    (_header(1, [2]) + np.array([1.0, np.nan]).tobytes(), "non-finite values"),
], ids=["bad-magic", "truncated-header", "non-finite"])
def test_record_errors_name_the_file(tmp_path, raw, named):
    # a single tensor file, and the second record of a checkpoint's weights
    (tmp_path / "t.vlt").write_bytes(raw)
    with pytest.raises(ParameterError, match=named) as exc:
        vlt.load_tensor(tmp_path / "t.vlt")
    assert str(tmp_path / "t.vlt") in str(exc.value)

    vlt.save_container(tmp_path / "ckpt", {"a": np.ones(2), "b": np.ones(2)})
    weights = tmp_path / "ckpt" / "weights.vlt"
    good = io.BytesIO()
    vlt.write_record(good, np.ones(2))
    weights.write_bytes(good.getvalue() + raw)
    with pytest.raises(ParameterError, match=named) as exc:
        vlt.load_container(tmp_path / "ckpt")
    assert str(weights) in str(exc.value)
