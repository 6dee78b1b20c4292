import numpy as np
import pytest

from emoforge.errors import DataError, ModelError
from emoforge.persistence import MAGIC, load_container, save_container


def test_container_roundtrip(tmp_path):
    header = {"model_kind": "rf", "seed": 3, "hyperparameters": {"n_trees": 5}}
    arrays = {
        "weights": np.arange(12, dtype=np.float64).reshape(3, 4),
        "counts": np.array([1, 2, 3], dtype=np.int64),
        "flag": np.array([True, False]),
    }
    path = tmp_path / "model.emf"
    save_container(path, header, arrays)
    loaded_header, loaded = load_container(path)
    assert loaded_header["model_kind"] == "rf"
    assert loaded_header["format_version"] == 1
    assert np.array_equal(loaded["weights"], arrays["weights"])
    assert np.array_equal(loaded["counts"], arrays["counts"])
    assert np.array_equal(loaded["flag"], [1, 0])


def test_container_bytes_deterministic(tmp_path):
    header = {"a": 1, "b": [1, 2]}
    arrays = {"x": np.linspace(0, 1, 50), "y": np.arange(5)}
    p1, p2 = tmp_path / "one.emf", tmp_path / "two.emf"
    save_container(p1, header, arrays)
    save_container(p2, dict(reversed(list(header.items()))), dict(reversed(list(arrays.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_container_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.emf"
    path.write_bytes(b"something else entirely")
    with pytest.raises(DataError):
        load_container(path)


def test_container_rejects_truncated_blob(tmp_path):
    path = tmp_path / "model.emf"
    save_container(path, {}, {"x": np.arange(10, dtype=np.float64)})
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(DataError):
        load_container(path)


def test_container_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.emf"
    save_container(path, {}, {})
    data = path.read_bytes().replace(b'"format_version": 1', b'"format_version": 9')
    path.write_bytes(data)
    with pytest.raises(ModelError):
        load_container(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "model.emf"
    save_container(path, {}, {"x": np.arange(4, dtype=np.float64)})
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(DataError):
        load_container(path)


@pytest.mark.parametrize("lines", [b"[1]\n[]\n", b'{"format_version": 1}\n{"x": 1}\n',
                                   b"not json\n[]\n"])
def test_container_rejects_non_object_header_or_non_list_manifest(tmp_path, lines):
    path = tmp_path / "model.emf"
    path.write_bytes(MAGIC + lines)
    with pytest.raises(DataError):
        load_container(path)
