import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import emoforge
from emoforge import _blas
from emoforge._blas import openblas, single_blas_thread
from emoforge.errors import DegenerateLabelError
from emoforge.lstm import LstmClassifier
from emoforge.pipeline import ModelBundle, load_bundle, save_bundle, train_bundle

LIB = openblas()
needs_openblas = pytest.mark.skipif(
    LIB is None, reason="numpy's BLAS is not an OpenBLAS whose thread count can be set"
)


@pytest.fixture
def caller_threads():
    """Run a test with the caller's OpenBLAS set to ``set_to(n)`` threads,
    restoring the count the test found."""
    found = LIB.get_num_threads()

    def set_to(n):
        LIB.set_num_threads(n)
        assert LIB.get_num_threads() == n

    try:
        yield set_to
    finally:
        LIB.set_num_threads(found)


def ragged_frames(seed=0, n=32, dim=6):
    """Per-frame sequences of 20-60 frames whose first column carries the
    class: enough packed rows for OpenBLAS to split the gradient products."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 4
    X = [rng.normal(size=(int(rng.integers(20, 61)), dim)) for _ in range(n)]
    for seq, label in zip(X, y):
        seq[:, 0] += label
    return X, y


def train_lstm(X, y, **hp):
    return train_bundle(ModelBundle("lstm", "audio_only", "four", 3,
                                    {"epochs": 3, "hidden_size": 32, **hp}), X, y)


@needs_openblas
def test_lstm_bundle_bytes_do_not_depend_on_the_callers_blas_threads(tmp_path, caller_threads):
    X, y = ragged_frames()
    saved = []
    for threads in (1, 2):
        caller_threads(threads)
        path = tmp_path / f"threads{threads}.emf"
        save_bundle(path, train_lstm(X, y))
        assert LIB.get_num_threads() == threads
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


@needs_openblas
def test_models_fit_predict_and_load_on_one_thread(tmp_path, caller_threads, monkeypatch):
    caller_threads(2)
    seen = []

    def record(method):
        def wrapper(self, *args):
            seen.append((method.__name__, LIB.get_num_threads()))
            return method(self, *args)
        return wrapper

    for name in ("fit", "predict_proba"):
        monkeypatch.setattr(LstmClassifier, name, record(getattr(LstmClassifier, name)))
    X, y = ragged_frames(n=8)
    bundle = train_lstm(X, y, epochs=1)
    bundle.predict_proba(X)
    save_bundle(tmp_path / "model.emf", bundle)  # both probe the member with one row
    load_bundle(tmp_path / "model.emf")
    assert seen == [("fit", 1)] + 3 * [("predict_proba", 1)]
    assert LIB.get_num_threads() == 2


@needs_openblas
def test_callers_threads_are_restored_when_a_fit_raises(caller_threads):
    caller_threads(2)
    X, _ = ragged_frames(n=4)
    with pytest.raises(DegenerateLabelError):
        train_lstm(X, np.zeros(4, dtype=np.int64))
    assert LIB.get_num_threads() == 2
    assert _blas._depth == 0


@needs_openblas
def test_a_nested_entry_keeps_the_pin_and_the_outer_exit_restores(tmp_path, caller_threads):
    caller_threads(2)
    X, y = ragged_frames(n=8)
    path = tmp_path / "model.emf"
    save_bundle(path, train_lstm(X, y, epochs=1))
    with single_blas_thread():
        assert LIB.get_num_threads() == 1
        bundle = load_bundle(path)  # its probe of the member enters the pin again
        assert LIB.get_num_threads() == 1
        bundle.predict_proba(X)
        assert LIB.get_num_threads() == 1
    assert LIB.get_num_threads() == 2
    assert _blas._depth == 0


@needs_openblas
def test_concurrent_entries_pin_throughout_and_restore_once(caller_threads):
    caller_threads(2)
    seen, errors = [], []
    start = threading.Barrier(8)

    def worker(k):
        try:
            start.wait(timeout=10)
            for j in range(300):
                with single_blas_thread():
                    seen.append(LIB.get_num_threads())
                    if (j + k) % 3 == 0:
                        with single_blas_thread():
                            seen.append(LIB.get_num_threads())
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not errors
    assert len(seen) == 8 * 400 and set(seen) == {1}
    assert LIB.get_num_threads() == 2
    assert _blas._depth == 0


def test_the_context_runs_its_block_with_or_without_openblas(monkeypatch):
    monkeypatch.setattr(_blas, "openblas", lambda: None)
    ran = []
    with single_blas_thread():
        ran.append(True)
    assert ran == [True]


# --- the start-up step: numpy's pool starts on one thread under emoforge ---

SRC = Path(emoforge.__file__).resolve().parent.parent
POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PROBE = SRC / "emoforge" / "_blas.py"

# Each child prints its pool size, whether OPENBLAS_NUM_THREADS is in its
# environment, and what the C library's getenv reads for it.
_REPORT = """
import ctypes, os
getenv = ctypes.CDLL(None).getenv
getenv.restype = ctypes.c_char_p
print(openblas().get_num_threads(), "OPENBLAS_NUM_THREADS" in os.environ,
      getenv(b"OPENBLAS_NUM_THREADS"))
"""

_EMOFORGE_FIRST = "import emoforge\nfrom emoforge._blas import openblas\n"
_NUMPY_FIRST = "import numpy\nimport emoforge\nfrom emoforge._blas import openblas\n"
# numpy alone: the probe module is loaded from its file, and no emoforge
# package is imported
_NUMPY_ALONE = f"""
import importlib.util, numpy, sys
spec = importlib.util.spec_from_file_location("probe", {str(PROBE)!r})
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
assert "emoforge" not in sys.modules
openblas = probe.openblas
"""


def run_child(code: str, **env: str) -> list[str]:
    """Run ``code`` in a fresh interpreter that imports from ``src/``, with
    none of the pool variables set but those in ``env``; its printed words."""
    clean = {k: v for k, v in os.environ.items() if k not in POOL_VARIABLES}
    done = subprocess.run([sys.executable, "-c", code],
                          env={**clean, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@needs_openblas
def test_importing_emoforge_first_starts_one_thread_and_leaves_the_environment():
    assert run_child(_EMOFORGE_FIRST + _REPORT) == ["1", "False", "None"]


@needs_openblas
@pytest.mark.parametrize("variable", POOL_VARIABLES)
def test_a_preset_pool_variable_keeps_numpys_own_count(variable):
    count, present, _ = run_child(_EMOFORGE_FIRST + _REPORT, **{variable: "2"})
    assert count == run_child(_NUMPY_ALONE + _REPORT, **{variable: "2"})[0]
    assert present == str(variable == "OPENBLAS_NUM_THREADS")


@needs_openblas
def test_numpy_imported_first_keeps_its_own_count():
    assert run_child(_NUMPY_FIRST + _REPORT)[0] == run_child(_NUMPY_ALONE + _REPORT)[0]


@needs_openblas
def test_the_pool_can_be_raised_after_a_one_thread_start():
    code = _EMOFORGE_FIRST + """
import os
import numpy
def tasks():
    return len(os.listdir("/proc/self/task"))
before = openblas().get_num_threads(), tasks()
openblas().set_num_threads(2)
a = numpy.ones((512, 512))
a @ a
print(*before, openblas().get_num_threads(), tasks())
"""
    count_before, tasks_before, count_after, tasks_after = map(int, run_child(code))
    assert (count_before, count_after) == (1, 2)
    assert tasks_after > tasks_before
