"""The names in emoforge that the benchmark under perfbench/ binds.

perfbench/spans.py wraps module globals and methods by name for a traced
run, and perfbench/bench.py and run.py call pipeline functions directly.
These tests only read perfbench/, so renaming or deleting one of those names
fails here instead of breaking ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from emoforge import pipeline
from emoforge.audio_features import FrameConfig
from emoforge.ingest import Dataset, load_manifest
from emoforge.models import GradientBoosting, RandomForest

from conftest import E2_LIGHT_HP

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# the pipeline calls of bench.py and run.py, so a scan that finds none fails
PIPELINE_CALLS = {
    "thread_count", "frame_sequences", "audio_feature_matrix", "text_feature_matrix",
    "fused_matrix", "predict_example", "load_bundle", "build_dataset",
}


def test_tracer_installs_and_restores_every_traced_name():
    # checked first: installing stops at a missing name and leaves the ones before it wrapped
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans._targets() if attr not in owner.__dict__]
    assert missing == []
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans._targets()]
    with spans.Tracer().installed():
        wrapped = [owner.__dict__[attr] for owner, attr, _, _ in spans._targets()]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans._targets()] == originals


def test_functions_the_benchmark_calls_exist():
    bench = (PERFBENCH / "bench.py").read_text(encoding="utf-8")
    run = (PERFBENCH / "run.py").read_text(encoding="utf-8")
    called = set(re.findall(r"\bpipeline\.(\w+)\(", bench))
    called |= set(re.findall(r"from emoforge\.pipeline import (\w+)", run))
    assert PIPELINE_CALLS <= called
    assert [name for name in sorted(called) if not callable(getattr(pipeline, name, None))] == []
    for module, name in re.findall(r"\b(audio_io|cli|metrics)\.(\w+)\(", bench):
        assert callable(getattr(importlib.import_module(f"emoforge.{module}"), name, None))


@pytest.mark.parametrize("kind, model", [
    ("rf", RandomForest(n_trees=2, max_depth=3, seed=0)),
    ("xgb", GradientBoosting(n_rounds=2, max_depth=2)),
])
def test_fitted_trees_give_their_node_counts(kind, model):
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(30, 3)), np.arange(30) % 3
    model.fit(X, y)
    # rf grows one tree per n_trees, xgb one per round and class
    assert node_count(kind, model) > {"rf": 2, "xgb": 6}[kind]


def node_count(kind, model):
    """The traced run's node counter for one fitted model: every node of its
    packed trees, as a Python int so that the trace stays JSON."""
    tracer = spans.Tracer()
    spans._nodes_hook(kind)(tracer, (model, None, None), model)
    count = tracer.counters[f"models.{kind}.nodes"]
    assert type(count) is int and count == int(model.packed_["offsets"][-1])
    return count


def test_loaded_ensemble_trees_give_their_node_counts(tmp_path):
    rng = np.random.default_rng(0)
    y = np.arange(24) % 3
    design = pipeline.ModelBundle("e2", "audio_only", "six", 0, E2_LIGHT_HP)
    bundle = pipeline.train_bundle(design, rng.normal(size=(24, 8)), y)
    pipeline.save_bundle(tmp_path / "model.emf", bundle)
    loaded = pipeline.load_bundle(tmp_path / "model.emf")
    counts = {m.kind: node_count(m.kind, m.classifier)
              for m in loaded.members if m.kind in ("rf", "xgb")}
    assert counts == {m.kind: node_count(m.kind, m.classifier)
                      for m in bundle.members if m.kind in ("rf", "xgb")}
    assert counts["rf"] > 3 and counts["xgb"] > 2 * 6


# the ModelBundle attributes that bench.py reads, so a scan that finds none fails
BUNDLE_READS = {"input_mode", "frame_config", "l_harm", "vocab", "setting", "class_mode",
                "class_names"}


def test_bundle_attributes_the_benchmark_reads_exist():
    read = set(re.findall(r"bundle\.(\w+)", (PERFBENCH / "bench.py").read_text(encoding="utf-8")))
    assert BUNDLE_READS <= read
    rng = np.random.default_rng(0)
    y = np.arange(12) % 3
    vector = pipeline.train_bundle(
        pipeline.ModelBundle("rf", "audio_only", "six", 0, {"n_trees": 2, "max_depth": 2}),
        rng.normal(size=(12, 8)), y)
    frames = pipeline.train_bundle(
        pipeline.ModelBundle("lstm", "audio_only", "six", 0, {"epochs": 1, "hidden_size": 2}),
        [rng.normal(size=(4, 6)) for _ in y], y)
    for bundle in (vector, frames):
        assert [name for name in sorted(read) if not hasattr(bundle, name)] == []
        # the traced run's models.feature_dim counter is the trained bundle's width
        tracer = spans.Tracer()
        spans._on_train_bundle(tracer, (), bundle)
        assert tracer.counters["models.feature_dim"] == bundle.feature_dim


def test_traced_run_times_and_measures_the_bundle_it_trains(tmp_path, tiny_corpus):
    # pipeline.train_bundle_s and models.feature_dim read the span and result of the
    # module global pipeline.train_bundle: a run that stopped calling it would zero them
    config = pipeline.ExperimentConfig(tiny_corpus, "audio_text", "e2", seed=1,
                                       out_dir=tmp_path / "run", hyperparams=E2_LIGHT_HP)
    with spans.Tracer().installed() as tracer:
        _, artifacts = pipeline.run_experiment(config)
    assert [span[spans.NAME] for span in tracer.spans].count("pipeline.train_bundle") == 1
    bundle = pipeline.load_bundle(artifacts["model"])
    assert tracer.counters["models.feature_dim"] == bundle.feature_dim > 8


def test_traced_feature_spans_count_each_distinct_clip_once(tiny_corpus):
    # audio_features.clip_ms and audio_features.frame_sequence_s read the spans of
    # the extractors as module globals of pipeline: a pipeline that called them
    # some other way would zero both
    examples = pipeline.read_dataset(load_manifest(tiny_corpus), "six").examples
    repeated = Dataset(examples + examples[::3])  # duplicates share their clip
    with spans.Tracer().installed() as tracer:
        pipeline.audio_feature_matrix(repeated, FrameConfig())
        pipeline.frame_sequences(repeated, FrameConfig())
    names = [span[spans.NAME] for span in tracer.spans]
    assert names.count("audio_features.clip") == len(examples)
    assert names.count("audio_features.frame_sequence") == len(examples)
