"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 8 needs a real
licensed corpus manifest via EMOFORGE_IEMOCAP_MANIFEST and is skipped
otherwise.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from emoforge.audio_features import (
    AUDIO_FEATURE_NAMES,
    FrameConfig,
    autocorr_pitch,
    center_clip,
    frame_signal,
    median_filter_1d,
    pause_ratio,
    rmse,
)
from emoforge.audio_io import AudioClip
from emoforge.cli import main
from emoforge.ingest import EmotionLabel, build_dataset, class_histogram, load_manifest
from emoforge.lstm import LstmClassifier, LstmParams, lstm_forward, sequence_gradients
from emoforge.metrics import confusion_matrix, evaluate
from emoforge.models import (
    GradientBoosting,
    LinearSVM,
    LogisticRegression,
    MlpClassifier,
    MultinomialNaiveBayes,
    RandomForest,
)
from emoforge.pipeline import (
    ENSEMBLE_MEMBERS,
    ExperimentConfig,
    feature_importance,
    feature_names,
    load_bundle,
    run_experiment,
)
from emoforge.synth import AUDIO_CUE_CLASSES, TEXT_CUE_CLASSES, generate_corpus
from emoforge.text_features import fit_vocabulary, tfidf_matrix


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{number} {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"[acceptance] C{number} {name}: {verdict} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


# --- criterion 1: DSP oracle suite -------------------------------------------


def _median_oracle(x, l):
    left, right = (l - 1) // 2, l // 2
    out = []
    for i in range(len(x)):
        w = sorted(x[max(0, i - left) : min(len(x), i + right + 1)])
        m = len(w)
        out.append(w[m // 2] if m % 2 else 0.5 * (w[m // 2 - 1] + w[m // 2]))
    return np.asarray(out)


def test_c1_dsp_oracle_suite():
    with criterion(1, "DSP oracle suite", 30):
        rng = np.random.default_rng(2024)

        values = rng.uniform(-2, 2, 10_000)
        levels = rng.uniform(0, 1.5, 10_000)
        clipped = center_clip(values, 0.0)  # warm shape
        for y, c in zip(values, levels):
            got = center_clip(np.array([y]), c)[0]
            if y >= c:
                assert got == y - c
            elif y <= -c:
                assert got == y + c
            else:
                assert got == 0.0

        for _ in range(1000):
            n = int(rng.integers(1, 65))
            l = int(rng.integers(1, 16))
            x = rng.uniform(-10, 10, n)
            assert np.array_equal(median_filter_1d(x, l), _median_oracle(x, l))

        sr = 22050
        for f in (80, 120, 220, 400):
            tone = np.sin(2 * np.pi * f * np.arange(sr // 2) / sr)
            for frame in frame_signal(tone, FrameConfig()):
                _, lag = autocorr_pitch(frame, sr)
                assert abs(lag - sr / f) <= 1

        sine = AudioClip(np.sin(2 * np.pi * 220 * np.arange(sr) / sr), sr, "sine")
        mean_rmse, _, _ = rmse(sine, FrameConfig())
        assert abs(mean_rmse - 1 / math.sqrt(2)) < 1e-3

        fixture = AudioClip(np.concatenate([np.zeros(300), np.ones(700)]), sr, "p")
        assert pause_ratio(fixture) == 0.3


# --- criterion 2: TFIDF exactness ---------------------------------------------


def test_c2_tfidf_exactness():
    with criterion(2, "TFIDF exactness", 1):
        docs = [["a", "b"], ["b", "c"], ["a", "c", "c"]]
        vocab = fit_vocabulary(docs)
        matrix = tfidf_matrix(docs, vocab)
        # hand computation: N=3, df(a)=2, df(b)=2, df(c)=2; idf = ln(3/2)
        idf = math.log(3 / 2)
        expected = np.array(
            [
                [1 * idf, 1 * idf, 0.0],
                [0.0, 1 * idf, 1 * idf],
                [1 * idf, 0.0, 2 * idf],
            ]
        )
        assert np.max(np.abs(matrix - expected)) < 1e-12


# --- criterion 3: gradient checks ----------------------------------------------


def test_c3_gradient_checks():
    with criterion(3, "gradient checks", 60):
        worst = 0.0
        for seed in range(20):  # MLP configurations
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 6))
            c = int(rng.integers(2, 5))
            hidden = tuple(int(h) for h in rng.integers(2, 7, size=int(rng.integers(1, 3))))
            model = MlpClassifier(hidden_sizes=hidden, n_classes=c, seed=seed)
            model.init_params(d, c)
            vec = rng.uniform(-0.8, 0.8, size=model.get_param_vector().size)
            model.set_param_vector(vec)
            X = rng.normal(size=(3, d))
            y = rng.integers(0, c, size=3)
            analytic = model.get_grad_vector(X, y)
            fd = np.zeros_like(vec)
            for i in range(vec.size):
                for sign, slot in ((1, 0), (-1, 1)):
                    probe = vec.copy()
                    probe[i] += sign * 1e-5
                    model.set_param_vector(probe)
                    if slot == 0:
                        up = model.loss(X, y)
                    else:
                        down = model.loss(X, y)
                fd[i] = (up - down) / 2e-5
            model.set_param_vector(vec)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic) + np.abs(fd), 1e-8)
            worst = max(worst, float(rel.max()))

        for seed in range(20):  # LSTM configurations
            rng = np.random.default_rng(1000 + seed)
            d = int(rng.integers(1, 7))
            hidden = int(rng.integers(2, 9))
            steps = int(rng.integers(1, 6))
            c = int(rng.integers(2, 5))
            params = LstmParams.init(d, hidden, c, rng)
            vec = rng.uniform(-0.7, 0.7, size=params.to_vector().size)
            params.set_vector(vec)
            xs = rng.normal(size=(steps, d))
            label = int(rng.integers(0, c))
            _, grads = sequence_gradients(params, xs, label)
            analytic = grads.to_vector()
            fd = np.zeros_like(vec)
            for i in range(vec.size):
                probe = vec.copy()
                probe[i] += 1e-5
                params.set_vector(probe)
                up = -math.log(lstm_forward(params, xs)[label])
                probe[i] -= 2e-5
                params.set_vector(probe)
                down = -math.log(lstm_forward(params, xs)[label])
                fd[i] = (up - down) / 2e-5
            params.set_vector(vec)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic) + np.abs(fd), 1e-8)
            worst = max(worst, float(rel.max()))

        print(f"  max relative gradient error: {worst:.2e}")
        assert worst < 1e-4


# --- criterion 4: classifier capability ----------------------------------------


def test_c4_classifier_capability():
    with criterion(4, "classifier capability", 120):
        rng = np.random.default_rng(0)
        base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        X_xor = np.tile(base, (50, 1)) + rng.normal(0, 0.05, size=(200, 2))
        y_xor = np.tile([0, 1, 1, 0], 50)
        forest = RandomForest(n_trees=30, max_depth=6, seed=0).fit(X_xor, y_xor)
        assert (forest.predict(X_xor) == y_xor).mean() >= 0.95
        boosted = GradientBoosting(n_rounds=20, learning_rate=0.3, max_depth=3).fit(X_xor, y_xor)
        assert (boosted.predict(X_xor) == y_xor).mean() >= 0.95

        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        Xb = np.vstack([c + rng.normal(0, 0.5, size=(80, 2)) for c in centers])
        yb = np.repeat(np.arange(3), 80)
        order = rng.permutation(len(yb))
        Xb, yb = Xb[order], yb[order]
        cut = int(0.75 * len(yb))
        lr = LogisticRegression(epochs=300, learning_rate=0.5).fit(Xb[:cut], yb[:cut])
        assert (lr.predict(Xb[cut:]) == yb[cut:]).mean() >= 0.95
        svm = LinearSVM(reg=1e-3, epochs=20, seed=0).fit(Xb[:cut], yb[:cut])
        assert (svm.predict(Xb[cut:]) == yb[cut:]).mean() >= 0.95

        X_nb = np.array([[3.0, 0, 2], [2, 0, 1], [0, 4, 2], [0, 1, 3]])
        y_nb = np.array([0, 0, 1, 1])
        mnb = MultinomialNaiveBayes(alpha=1.0).fit(X_nb, y_nb)
        probes = np.array([[2.0, 0, 0], [0, 3.0, 0], [5.0, 0, 1], [0, 2.0, 2]])
        assert np.array_equal(mnb.predict(probes), [0, 1, 0, 1])

        wins = 0
        for seed in range(10):
            task_rng = np.random.default_rng(100 + seed)
            seqs, labels = [], []
            for _ in range(100):
                steps = int(task_rng.integers(4, 9))
                xs = task_rng.uniform(-1, 1, size=(steps, 1))
                seqs.append(xs)
                labels.append(int(xs.sum() > 0))
            labels = np.asarray(labels)
            model = LstmClassifier(
                hidden_size=6, epochs=150, learning_rate=0.3, batch_size=16,
                dropout_rate=0.0, patience=150, seed=seed,
            ).fit(seqs, labels)
            wins += (model.predict(seqs) == labels).mean() >= 0.9
        print(f"  cumulative-sum task: {wins}/10 seeds at >=0.9")
        assert wins >= 8


# --- criterion 5: metric identities ---------------------------------------------


def test_c5_metric_identities():
    with criterion(5, "metric identities", 5):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            n = int(rng.integers(1, 50))
            truth = rng.integers(0, c, size=n)
            pred = rng.integers(0, c, size=n)
            matrix = confusion_matrix(truth, pred, c)
            assert np.array_equal(matrix.sum(axis=1), np.bincount(truth, minlength=c))
            accuracy = np.trace(matrix) / matrix.sum()
            assert accuracy == (truth == pred).mean()
            tp = np.diag(matrix).sum()
            assert tp / matrix.sum(axis=0).sum() == accuracy  # micro precision
            assert tp / matrix.sum(axis=1).sum() == accuracy  # micro recall

        report = evaluate(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), 2)
        assert abs(report.macro_f1 - 11 / 15) < 1e-12


# --- criterion 6: synthetic end-to-end -------------------------------------------


def _subset_accuracy(report, class_names):
    rows = [report.class_names.index(c) for c in class_names]
    correct = sum(report.confusion[r, r] for r in rows)
    total = sum(report.confusion[r, :].sum() for r in rows)
    return correct / total


@pytest.fixture(scope="module")
def acceptance_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    return generate_corpus(root, seed=606, n_per_class=100)


def test_c6_synthetic_end_to_end(acceptance_corpus):
    with criterion(6, "synthetic end-to-end", 180):
        light = {
            "rf": {"n_trees": 40, "max_depth": 10},
            "xgb": {"n_rounds": 25, "learning_rate": 0.3},
            "mlp": {"epochs": 120, "hidden_sizes": (32,)},
            "lr": {"epochs": 200},
        }

        def run(setting, kind):
            hyperparams = {m: light[m] for m in ENSEMBLE_MEMBERS[kind] if m in light}
            config = ExperimentConfig(
                manifest=acceptance_corpus, setting=setting, model_kind=kind,
                class_mode="six", seed=42, hyperparams=hyperparams,
            )
            report, _ = run_experiment(config)
            return report

        audio_report = run("audio_only", "e1")
        text_report = run("text_only", "e2")
        fused_report = run("audio_text", "e2")

        audio_cue_acc = _subset_accuracy(audio_report, AUDIO_CUE_CLASSES)
        text_cue_acc = _subset_accuracy(text_report, TEXT_CUE_CLASSES)
        print(
            f"  audio-only E1 on audio-cue classes: {audio_cue_acc:.3f}; "
            f"text-only E2 on text-cue classes: {text_cue_acc:.3f}"
        )
        print(
            f"  overall accuracies: audio {audio_report.accuracy:.3f}, "
            f"text {text_report.accuracy:.3f}, fused {fused_report.accuracy:.3f}"
        )
        assert audio_cue_acc >= 0.8
        assert text_cue_acc >= 0.8
        assert fused_report.accuracy >= audio_report.accuracy + 0.10
        assert fused_report.accuracy >= text_report.accuracy + 0.10


# --- criterion 7: determinism -----------------------------------------------------


def test_c7_train_determinism(tmp_path):
    with criterion(7, "train determinism", 60):
        corpus = tmp_path / "corpus"
        assert main(["synth-corpus", "--out", str(corpus), "--seed", "11", "--per-class", "10"]) == 0
        manifest = corpus / "manifest.jsonl"
        for kind, hp in (
            ("rf", ["--hp", "n_trees=6", "--hp", "max_depth=5"]),
            ("mlp", ["--hp", "epochs=8", "--hp", "hidden_sizes=8"]),
            ("e1", ["--hp", "epochs=5"]),
        ):
            outputs = []
            for run_dir in ("first", "second"):
                out = tmp_path / f"{kind}_{run_dir}"
                args = [
                    "train", "--manifest", str(manifest), "--model", kind,
                    "--setting", "audio_only", "--seed", "13", "--out", str(out),
                ]
                if kind != "e1":
                    args += hp
                assert main(args) == 0
                outputs.append(out)
            first, second = outputs
            assert (first / "model.emf").read_bytes() == (second / "model.emf").read_bytes()
            assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


# --- criterion 8: gated dataset check ----------------------------------------------


EXPECTED_CORPUS_COUNTS = {
    EmotionLabel.ANGRY: 860,
    EmotionLabel.HAPPY: 1309,
    EmotionLabel.SAD: 2327,
    EmotionLabel.FEAR: 1007,
    EmotionLabel.SURPRISE: 949,
    EmotionLabel.NEUTRAL: 1385,
}


def test_c8_gated_dataset_histogram():
    manifest_path = os.environ.get("EMOFORGE_IEMOCAP_MANIFEST")
    if not manifest_path:
        print("[acceptance] C8 gated dataset check: SKIPPED (EMOFORGE_IEMOCAP_MANIFEST unset)")
        pytest.skip("gated: set EMOFORGE_IEMOCAP_MANIFEST to a licensed-corpus manifest")
    with criterion(8, "gated dataset check", 600):
        entries = load_manifest(manifest_path)
        dataset = build_dataset(entries, class_mode="six")
        counts = class_histogram(dataset)
        assert counts == EXPECTED_CORPUS_COUNTS
        assert sum(counts.values()) == 7837


# --- criterion 9: feature-importance sanity ------------------------------------------


def test_c9_feature_importance_sanity(tmp_path):
    with criterion(9, "feature-importance sanity", 30):
        rng = np.random.default_rng(17)
        y = rng.integers(0, 3, size=300)
        X = rng.normal(size=(300, 8))
        X[:, 4] = y * 3.0 + rng.normal(0, 0.05, size=300)
        model = RandomForest(n_trees=15, max_depth=6, seed=0, max_features=None).fit(X, y)
        ranked = feature_importance(model, [f"f{i}" for i in range(8)])
        total = sum(v for _, v in ranked)
        assert abs(total - 1.0) < 1e-9
        assert ranked[0][0] == "f4" and ranked[0][1] > 0.9

        corpus = tmp_path / "corpus"
        generate_corpus(corpus, seed=23, n_per_class=8)
        out = tmp_path / "run"
        config = ExperimentConfig(
            manifest=corpus / "manifest.jsonl", setting="audio_only",
            model_kind="xgb", seed=5, out_dir=out,
            hyperparams={"n_rounds": 5, "learning_rate": 0.3},
        )
        run_experiment(config)
        bundle = load_bundle(out / "model.emf")
        names = [n for n, _ in feature_importance(bundle, feature_names("audio_only", None))]
        assert sorted(names) == sorted(AUDIO_FEATURE_NAMES)
        ranked_csv = (out / "importances.csv").read_text().splitlines()
        assert {line.split(",")[1] for line in ranked_csv[1:]} == set(AUDIO_FEATURE_NAMES)
