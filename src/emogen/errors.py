"""Exception hierarchy shared by all emogen modules."""


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


# --- metrics ---

class EmptyPiece(EmogenError):
    """Metric requested on a piece with no notes."""


class EmptyRoll(EmogenError):
    """Metric requested on a piano roll with zero time steps."""


class TooShort(EmogenError):
    """Piece spans fewer than two full measures."""


# --- pairing ---

class DegenerateRange(EmogenError):
    """Normalization source range has zero width."""


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


class BatchTooSmall(EmogenError):
    """Batch norm in train mode needs batch size >= 2."""


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
    """Training inputs (manifest, tokens, features, weights) unresolvable."""


class ConfigError(EmogenError):
    """Run configuration file invalid or contains unknown keys."""
