"""Default hyperparameters for every model kind, declared in one place.

Each entry can be overridden per run (library call or ``--hp key=value``
on the CLI); an ensemble takes one table per member, keyed by member kind.
Every override is checked against its default's type and its model's range
before a run reads any WAV, so a value is either applied or rejected. Each
model constructor takes exactly these defaults (but the lstm's
``input_mode``, which the pipeline reads), plus ``n_classes``, a ``seed``
where the model draws (rf, svm, mlp, lstm) and rf's library-only
``bootstrap`` and ``max_features``. Seeds are never stored here: they are
part of the experiment configuration, and sub-seeds are derived from the
experiment seed with the fixed offsets below so reruns are reproducible.
"""

from __future__ import annotations

DEFAULT_FRAME_LENGTH = 2048
DEFAULT_HOP_LENGTH = 512
DEFAULT_HARMONIC_WINDOW = 31

DEFAULT_PITCH_FMIN = 50.0
DEFAULT_PITCH_FMAX = 500.0

DEFAULT_UPSAMPLE_RHO = 0.5
DEFAULT_TRAIN_FRACTION = 0.8

# Offsets added to the experiment seed when a stage needs its own stream.
SEED_OFFSET_SPLIT = 0
SEED_OFFSET_UPSAMPLE = 1
SEED_OFFSET_MODEL = 100  # model i uses seed + SEED_OFFSET_MODEL + i

MODEL_DEFAULTS: dict[str, dict] = {
    "rf": {
        "n_trees": 100,
        "max_depth": 16,
        "min_samples_leaf": 1,
    },
    "xgb": {
        "n_rounds": 100,
        "learning_rate": 0.1,
        "max_depth": 3,
        "min_samples_leaf": 1,
    },
    "svm": {
        "reg": 1e-3,
        "epochs": 30,
    },
    "mnb": {
        "alpha": 1.0,
    },
    "lr": {
        "reg": 1e-4,
        "epochs": 300,
        "learning_rate": 0.5,
    },
    "mlp": {
        "hidden_sizes": (64,),
        "epochs": 200,
        "learning_rate": 0.05,
        "batch_size": 32,
        "momentum": 0.9,
    },
    "lstm": {
        "hidden_size": 32,
        "epochs": 100,
        "learning_rate": 0.05,
        "batch_size": 16,
        "dropout_rate": 0.2,
        "clip_threshold": 5.0,
        "patience": 10,
        "input_mode": "frames",  # "frames" or "clip"
    },
}

ENSEMBLE_MEMBERS: dict[str, tuple[str, ...]] = {
    "e1": ("rf", "xgb", "mlp"),
    "e2": ("rf", "xgb", "mlp", "mnb", "lr"),
}

#: Every model kind a run can name: the single models, then the ensembles.
MODEL_KINDS = (*MODEL_DEFAULTS, *ENSEMBLE_MEMBERS)
