"""Multimodal speech emotion recognition toolkit.

Library surface: WAV decoding, manifest-driven dataset assembly, eight
time-domain audio features, TFIDF text features, from-scratch classifiers
(trees, boosting, linear models, naive Bayes, MLP, LSTM), early fusion,
soft-voting ensembles, and a train/evaluate/predict pipeline. The `emoforge`
console script wraps the pipeline.
"""

# first, so that numpy's OpenBLAS starts with one thread (see _blas)
from . import _blas  # noqa: F401

from .audio_features import (
    AUDIO_FEATURE_NAMES,
    FrameConfig,
    autocorr_pitch,
    center_clip,
    central_moments,
    extract_audio_features,
    extract_frame_sequence,
    harmonic_feature,
    median_filter_1d,
    pause_ratio,
    rmse,
    spectrogram,
)
from .audio_io import AudioClip, decode_wav, encode_wav
from .ingest import (
    Dataset,
    EmotionLabel,
    Example,
    ManifestEntry,
    build_dataset,
    class_histogram,
    load_manifest,
    map_label,
    split,
    upsample,
)
from .lstm import LstmClassifier, LstmParams, lstm_forward
from .metrics import EvalReport, confusion_matrix, evaluate
from .models import (
    GradientBoosting,
    LinearSVM,
    LogisticRegression,
    MlpClassifier,
    MultinomialNaiveBayes,
    RandomForest,
)
from .pipeline import (
    ExperimentConfig,
    ModelBundle,
    feature_importance,
    load_bundle,
    run_experiment,
    save_bundle,
    train_bundle,
)
from .synth import generate_corpus
from .text_features import (
    Vocabulary,
    fit_vocabulary,
    load_vocabulary,
    normalize_text,
    save_vocabulary,
    tfidf_transform,
)

__version__ = "0.1.0"
