"""In-memory spans and counters for the traced benchmark run.

Wrappers are installed from here, around the names through which emoforge's
own code (or the benchmark) looks up each layer's public functions, and are
removed again when a traced session ends. Nothing under ``src/`` is changed.

A span records its name (``<layer>.<operation>``), the thread it ran on, its
start and end in wall time (``time.perf_counter``) and in the thread's CPU
time (``time.thread_time``), the span that caused it and the request it
belongs to (-1 for none, TRAINING during a training). A span opened on a worker thread with nothing open on
that thread is attributed to the innermost span open on the thread that
created the tracer, which is the one waiting on the worker pool. Spans stay
in memory; the caller writes them out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import threading
import time
from collections import Counter, defaultdict

import emoforge.audio_features as audio_features
import emoforge.audio_io as audio_io
import emoforge.ingest as ingest
import emoforge.pipeline as pipeline
from emoforge.lstm import LstmClassifier
from emoforge.models import (
    GradientBoosting,
    LogisticRegression,
    MlpClassifier,
    MultinomialNaiveBayes,
    RandomForest,
)

LAYERS = (
    "audio_io",
    "ingest",
    "audio_features",
    "text_features",
    "pipeline",
    "models",
    "lstm",
    "persistence",
)

FIELDS = ("name", "thread", "start", "end", "cpu_start", "cpu_end", "parent", "request")
NAME, THREAD, START, END, CPU_START, CPU_END, PARENT, REQUEST = range(len(FIELDS))
TRAINING = -2  # the request field of spans made during an `emoforge train`

MODEL_CLASSES = {
    "rf": RandomForest,
    "xgb": GradientBoosting,
    "mlp": MlpClassifier,
    "mnb": MultinomialNaiveBayes,
    "lr": LogisticRegression,
}


class Tracer:
    """Collects spans and integer counters; thread-safe for appends."""

    def __init__(self):
        self.spans: list[list] = []  # see FIELDS
        self.counters: Counter = Counter()
        self.request = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._owner and self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, threading.get_ident(), time.perf_counter(), 0.0,
                               time.thread_time(), 0.0, parent, self.request])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[CPU_END] = time.thread_time()
        span[END] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def peak(self, name: str, value: int) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        restore = []
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            restore.append((owner, attr, original))
            setattr(owner, attr, _wrap(self, original, name, hook))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def _wrap(tracer: Tracer, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper


# --- counters taken at the same boundaries as the spans ----------------------


def _on_decode(tracer, args, result):
    tracer.count("audio_io.decode_calls")
    tracer.count("audio_io.bytes_read", os.path.getsize(args[0]))


def _on_manifest(tracer, args, result):
    tracer.count("ingest.entries_read", len(result))


def _on_build_dataset(tracer, args, result):
    tracer.count("ingest.entries_dropped", len(args[0]) - len(result))


def _on_upsample(tracer, args, result):
    tracer.count("ingest.upsampled_rows", len(result) - len(args[0]))


def _on_pitch(tracer, args, result):
    tracer.count("audio_features.frames")
    if result == (0.0, 0):
        tracer.count("audio_features.silent_frames")


def _on_audio_matrix(tracer, args, result):
    examples = args[0].examples
    tracer.count("pipeline.matrix_rows", len(examples))
    tracer.count("pipeline.distinct_clips", len({id(ex.audio) for ex in examples}))


def _on_train_bundle(tracer, args, result):
    tracer.peak("models.feature_dim", result.feature_dim)


def _on_vocab(tracer, args, result):
    tracer.peak("text_features.vocab_size", len(result))


def _on_container(tracer, args, result):
    tracer.peak("persistence.model_bytes", os.path.getsize(args[0]))


def _nodes_hook(kind):
    def hook(tracer, args, result):
        model = args[0]
        trees = model.trees_ if kind == "rf" else [t for r in model.trees_ for t in r]
        tracer.count(f"models.{kind}.nodes", sum(t.n_nodes for t in trees))

    return hook


def _on_lstm_fit(tracer, args, result):
    tracer.count("lstm.epochs_run", len(args[0].loss_history_))


def _predict_name(kind):
    def name(args):
        X = args[1]
        single = not isinstance(X, list) and getattr(X, "shape", (0,))[0] == 1
        return f"models.{kind}.predict_one" if single else f"models.{kind}.predict"

    return name


def _targets():
    """(owner, attribute, span name, counter hook) for every traced name."""
    targets = [
        (audio_io, "decode_wav", "audio_io.decode", _on_decode),
        (ingest, "decode_wav", "audio_io.decode", _on_decode),
        (pipeline, "load_manifest", "ingest.manifest", _on_manifest),
        (pipeline, "build_dataset", "ingest.build_dataset", _on_build_dataset),
        (pipeline, "upsample", "ingest.upsample", _on_upsample),
        (pipeline, "extract_audio_features", "audio_features.clip", None),
        (pipeline, "extract_frame_sequence", "audio_features.frame_sequence", None),
        (audio_features, "autocorr_pitch", "audio_features.pitch", _on_pitch),
        (audio_features, "harmonic_feature", "audio_features.harmonic", None),
        (audio_features, "rmse", "audio_features.rmse", None),
        (audio_features, "pause_ratio", "audio_features.pause", None),
        (audio_features, "central_moments", "audio_features.moments", None),
        (pipeline, "audio_feature_matrix", "pipeline.audio_matrix", _on_audio_matrix),
        (pipeline, "frame_sequences", "pipeline.frame_sequences", None),
        (pipeline, "train_bundle", "pipeline.train_bundle", _on_train_bundle),
        (pipeline.ModelBundle, "predict_proba", "pipeline.bundle_predict", None),
        (pipeline, "write_artifacts", "pipeline.write_artifacts", None),
        (pipeline, "fit_vocabulary", "text_features.vocab", _on_vocab),
        (pipeline, "tfidf_matrix", "text_features.tfidf", None),
        (pipeline, "tfidf_transform", "text_features.tfidf", None),
        (pipeline, "save_container", "persistence.save", _on_container),
        (pipeline, "load_container", "persistence.load", _on_container),
        (LstmClassifier, "fit", "lstm.fit", _on_lstm_fit),
        (LstmClassifier, "predict_proba", "lstm.predict", None),
    ]
    for kind, cls in MODEL_CLASSES.items():
        hook = _nodes_hook(kind) if kind in ("rf", "xgb") else None
        targets.append((cls, "fit", f"models.{kind}.fit", hook))
        targets.append((cls, "predict_proba", _predict_name(kind), None))
    return targets


# --- per-layer metrics --------------------------------------------------------


def layer_metrics(spans: list[list], counters: Counter, threads: int) -> dict[str, float]:
    """Per-layer metrics (name -> value) of one traced session.

    Times ending in ``_s`` and ``_ms`` are thread CPU time, so the host taking
    a CPU away does not count, except ``pipeline.audio_matrix_s`` and
    ``pipeline.frame_sequences_s``, which are the wall time spent waiting on
    the feature threads. A layer's self time is the CPU time of its spans
    minus that of their children on the same thread.
    """
    cpu: dict[str, float] = defaultdict(float)
    cpu_each: dict[str, list[float]] = defaultdict(list)
    wall: dict[str, float] = defaultdict(float)
    for span in spans:
        own = span[CPU_END] - span[CPU_START]
        cpu[span[NAME]] += own
        cpu_each[span[NAME]].append(own)
        wall[span[NAME]] += span[END] - span[START]
    busy = sum(
        span[CPU_END] - span[CPU_START]
        for span in spans
        if span[NAME] == "audio_features.clip"
        and span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == "pipeline.audio_matrix"
    )

    def p50_ms(name):
        values = cpu_each.get(name)
        return 1000.0 * statistics.median(values) if values else 0.0

    m: dict[str, float] = {
        "audio_io.decode_s": cpu["audio_io.decode"],
        "ingest.manifest_s": cpu["ingest.manifest"],
        "ingest.build_dataset_s": cpu["ingest.build_dataset"],
        "audio_features.pitch_s": cpu["audio_features.pitch"],
        "audio_features.harmonic_s": cpu["audio_features.harmonic"],
        "audio_features.rmse_s": cpu["audio_features.rmse"],
        "audio_features.pause_s": cpu["audio_features.pause"],
        "audio_features.moments_s": cpu["audio_features.moments"],
        "audio_features.clip_ms": p50_ms("audio_features.clip"),
        "audio_features.frame_sequence_s": cpu["audio_features.frame_sequence"],
        "pipeline.audio_matrix_s": wall["pipeline.audio_matrix"],
        "pipeline.audio_matrix_busy_s": busy,
        "pipeline.threads": threads,
        "pipeline.parallel_efficiency": (
            busy / (wall["pipeline.audio_matrix"] * threads)
            if wall["pipeline.audio_matrix"] > 0 else 0.0
        ),
        "pipeline.distinct_clip_ratio": (
            counters["pipeline.distinct_clips"] / counters["pipeline.matrix_rows"]
            if counters["pipeline.matrix_rows"] else 0.0
        ),
        "pipeline.frame_sequences_s": wall["pipeline.frame_sequences"],
        "pipeline.train_bundle_s": cpu["pipeline.train_bundle"],
        "pipeline.bundle_predict_s": cpu["pipeline.bundle_predict"],
        "pipeline.write_artifacts_s": cpu["pipeline.write_artifacts"],
        "text_features.vocab_s": cpu["text_features.vocab"],
        "text_features.tfidf_s": cpu["text_features.tfidf"],
        "lstm.fit_s": cpu["lstm.fit"],
        "lstm.predict_s": cpu["lstm.predict"],
        "persistence.save_s": cpu["persistence.save"],
        "persistence.load_s": cpu["persistence.load"],
    }
    for kind in MODEL_CLASSES:
        m[f"models.{kind}.fit_s"] = cpu[f"models.{kind}.fit"]
        m[f"models.{kind}.predict_one_ms"] = p50_ms(f"models.{kind}.predict_one")
    for name in (
        "audio_io.decode_calls", "audio_io.bytes_read", "ingest.entries_read",
        "ingest.entries_dropped", "ingest.upsampled_rows", "audio_features.frames",
        "audio_features.silent_frames", "text_features.vocab_size", "models.rf.nodes",
        "models.xgb.nodes", "models.feature_dim", "lstm.epochs_run", "persistence.model_bytes",
    ):
        m[name] = counters[name]
    self_by_layer = self_cpu(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m


def self_cpu(spans: list[list], keep=lambda span: True) -> dict[str, float]:
    """Self CPU time by layer of the spans that ``keep`` accepts."""
    child_cpu: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0 and spans[parent][THREAD] == span[THREAD]:
            child_cpu[parent] += span[CPU_END] - span[CPU_START]
    by_layer: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if keep(span):
            own = span[CPU_END] - span[CPU_START] - child_cpu[index]
            by_layer[span[NAME].split(".", 1)[0]] += own
    return by_layer
