"""Exception hierarchy shared by all emogen modules, and the argument rules."""

import sys


class EmogenError(Exception):
    """Base class for all errors raised by this package."""


# --- MIDI file I/O ---

class MalformedHeader(EmogenError):
    """SMF header chunk missing, wrong magic, or wrong length."""


class TruncatedTrack(EmogenError):
    """Byte stream ended in the middle of a track event."""


class UnsupportedFormat(EmogenError):
    """SMF format 2 or SMPTE time division."""


class MalformedEvent(EmogenError):
    """Note event with a data byte >= 0x80, or a zero tempo."""


class MalformedPiece(EmogenError, ValueError):
    """Note or piece field out of range (pitch, onset, duration, velocity, tempo...)."""


# --- tokenizer ---

class TokenizerError(EmogenError, ValueError):
    """Token, id, bin count or length outside the vocabulary's layout or limits."""


# --- metrics ---

class EmptyPiece(EmogenError):
    """Metric requested on a piece with no notes."""


class EmptyRoll(EmogenError):
    """Metric requested on a piano roll with zero time steps."""


class TooShort(EmogenError):
    """Piece spans fewer than two full measures."""


class BadMetricSetting(EmogenError, ValueError):
    """Steps per beat or per measure below 1, or an unknown polyphony denominator."""


# --- pairing ---

class OutOfRange(EmogenError):
    """Value outside its declared range."""


class EmptyCatalog(EmogenError):
    """Pairing requested with an empty image or MIDI catalog."""


class CountMismatch(EmogenError):
    """Split counts do not sum to the number of pairs."""


class CatalogError(EmogenError):
    """Catalog file unreadable or a row is malformed."""


# --- numerical core / model ---

class ShapeMismatch(EmogenError):
    """Operand shapes incompatible for the requested operation."""


class BadFeatureFile(EmogenError):
    """Precomputed image-feature file has wrong magic or length."""


class BadImage(EmogenError):
    """Image file could not be decoded."""


class VocabMismatch(EmogenError):
    """Token data does not match the checkpoint's vocabulary."""


class PrefixTooLong(EmogenError):
    """Decoder prefix exceeds the configured maximum length."""


class CheckpointCorrupt(EmogenError):
    """Checkpoint file has a bad magic header or truncated blocks."""


class PredictorMissing(EmogenError):
    """VA loss requested without pretrained predictor weights."""


class NonFiniteError(EmogenError):
    """A training loss became NaN or infinite; the step is not applied."""


class CatalogTooSmall(EmogenError):
    """VA-predictor pretraining needs at least two labeled pieces."""


class MissingArtifacts(EmogenError):
    """A run input (manifest, MIDI, features, weights) or Pillow cannot be resolved."""


class ConfigError(EmogenError):
    """Run configuration file invalid or contains unknown keys."""


# --- argument rules: each is written once, here ---

def check_int(name: str, value, minimum: int, error: type[EmogenError] = ConfigError) -> None:
    """`error` unless `value` is an int (a bool is not) of at least `minimum`."""
    if type(value) is not int or value < minimum:
        raise error(f"{name} must be an int >= {minimum}, got {value!r}")


def check_positive(name: str, value) -> None:
    """ConfigError unless `value` is an int or float (not a bool), finite as a float and > 0."""
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
