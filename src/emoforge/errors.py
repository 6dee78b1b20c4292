"""Exception hierarchy.

Two broad families map onto the CLI exit codes: ConfigError (exit 2) for
bad parameters and misconfiguration, DataError (exit 3) for problems with
the data itself (files, labels, degenerate datasets).
"""


class EmoforgeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EmoforgeError):
    """Invalid configuration or parameters."""


class ParameterError(ConfigError):
    """A numeric parameter is out of its valid range."""


class DataError(EmoforgeError):
    """The supplied data is unusable."""


class AudioFormatError(DataError):
    """Malformed RIFF/WAVE container."""


class UnsupportedAudioError(DataError):
    """WAV encoding outside the supported PCM subset."""


class EmptyAudioError(DataError):
    """WAV file carries no samples."""


class ManifestError(DataError):
    """Manifest file is missing, malformed, or inconsistent."""


class UnknownLabelError(DataError):
    """Raw label outside the declared label alphabet."""


class DegenerateClassError(DataError):
    """A dataset that must hold examples holds none."""


class DegenerateLabelError(DataError):
    """Training data contains fewer than two classes."""


class SplitError(DataError):
    """A requested split would leave a partition empty."""


class ModelError(EmoforgeError):
    """Model state is unusable for the requested operation."""


class UnsupportedModelError(ModelError):
    """Operation not defined for this model kind."""
