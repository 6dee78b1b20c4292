"""Fixed settings of a run: framing, pitch range, split and upsampling
defaults, the offsets that derive stage seeds, and the ensembles' members.

Model hyperparameter defaults are not here: each one is its model
constructor's default, and ``pipeline.MODEL_DEFAULTS`` reads them from the
signatures. Seeds are never stored here either: they are part of the
experiment configuration, and sub-seeds are derived from the experiment seed
with the fixed offsets below so reruns are reproducible.
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

ENSEMBLE_MEMBERS: dict[str, tuple[str, ...]] = {
    "e1": ("rf", "xgb", "mlp"),
    "e2": ("rf", "xgb", "mlp", "mnb", "lr"),
}
