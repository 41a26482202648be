"""Emotionally paired image/MIDI dataset construction.

Valence-Arousal annotations lie on [1, 9]. Each MIDI is matched to its
most emotionally similar image (reciprocal Euclidean distance in VA space,
image reuse allowed), and the resulting pairs are split deterministically
under a seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ._files import write_atomic
from .errors import CatalogError, CountMismatch, EmptyCatalog, OutOfRange

VA_MIN, VA_MAX = 1.0, 9.0

#: Similarity reported for coincident VA points (the reciprocal-distance
#: formula is singular there); orders above every finite score.
MAX_SIMILARITY = math.inf


@dataclass(frozen=True)
class VaPoint:
    valence: float
    arousal: float

    def __post_init__(self):
        for name, value in (("valence", self.valence), ("arousal", self.arousal)):
            if not VA_MIN <= value <= VA_MAX:
                raise OutOfRange(f"{name} {value} outside [{VA_MIN}, {VA_MAX}]")


@dataclass(frozen=True)
class TaggedItem:
    id: str
    kind: str  # "image" | "midi"
    va: VaPoint
    payload_path: str


@dataclass
class PairManifest:
    pairs: list[dict] = field(default_factory=list)  # midi_id, image_id, similarity, split
    seed: int = 0
    config_hash: str = ""

    def split_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for pair in self.pairs:
            tag = pair.get("split", "")
            counts[tag] = counts.get(tag, 0) + 1
        return counts


def similarity(x: VaPoint, y: VaPoint) -> float:
    """Reciprocal Euclidean distance in VA space; inf for identical points."""
    d2 = (x.valence - y.valence) ** 2 + (x.arousal - y.arousal) ** 2
    if d2 == 0.0:
        return MAX_SIMILARITY
    return d2 ** -0.5


def pair_datasets(midis: Sequence[TaggedItem], images: Sequence[TaggedItem]) -> PairManifest:
    """Match each MIDI (ascending id order) to its most similar image.

    Ties break on ascending image id; images may be reused. Comparison uses
    squared distance, so the zero-distance singularity is never divided by.
    """
    if not midis or not images:
        raise EmptyCatalog("both catalogs must be non-empty")
    images_sorted = sorted(images, key=lambda it: it.id)
    manifest = PairManifest()
    for midi in sorted(midis, key=lambda it: it.id):
        best = min(images_sorted,
                   key=lambda img: ((midi.va.valence - img.va.valence) ** 2
                                    + (midi.va.arousal - img.va.arousal) ** 2,
                                    img.id))
        manifest.pairs.append({"midi_id": midi.id, "image_id": best.id,
                               "similarity": similarity(midi.va, best.va)})
    return manifest


def split(manifest: PairManifest, counts: tuple[int, int, int], seed: int) -> PairManifest:
    """Assign train/test/val tags by a seeded shuffle then contiguous slices."""
    train, test, val = counts
    if min(counts) < 0:
        raise CountMismatch(f"split counts {counts} must not be negative")
    if train + test + val != len(manifest.pairs):
        raise CountMismatch(
            f"split counts {counts} sum to {train + test + val}, "
            f"manifest has {len(manifest.pairs)} pairs")
    order = list(range(len(manifest.pairs)))
    random.Random(seed).shuffle(order)
    tags = ["train"] * train + ["test"] * test + ["val"] * val
    pairs = [dict(p) for p in manifest.pairs]
    for position, index in enumerate(order):
        pairs[index]["split"] = tags[position]
    return PairManifest(pairs=pairs, seed=seed, config_hash=manifest.config_hash)


# --- catalog / manifest files ---

def _read_csv(path: str | Path, *headers: set[str]) -> tuple[int, list[tuple[int, dict]]]:
    """Index of the first of `headers` a UTF-8 CSV's header holds, and its rows
    numbered from 2; bad UTF-8 or CSV, another header or a short row is a CatalogError."""
    try:
        reader = csv.DictReader(io.StringIO(Path(path).read_bytes().decode("utf-8"), newline=""))
        fields = set(reader.fieldnames or [])
        rows = list(enumerate(reader, 2))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CatalogError(f"{path}: {exc}") from exc
    matches = [index for index, header in enumerate(headers) if header <= fields]
    if not matches:
        raise CatalogError(f"{path}: unrecognized header {sorted(fields)}")
    for row_no, row in rows:
        if None in row.values():
            raise CatalogError(f"{path}:{row_no}: row has fewer fields than the header")
    return matches[0], rows


def load_va_dictionary(path: str | Path) -> dict[str, VaPoint]:
    """Emotion-label -> VA mapping from a CSV with columns label,valence,arousal."""
    mapping: dict[str, VaPoint] = {}
    _, rows = _read_csv(path, {"label", "valence", "arousal"})
    for row_no, row in rows:
        try:
            mapping[row["label"]] = VaPoint(float(row["valence"]), float(row["arousal"]))
        except (ValueError, OutOfRange) as exc:
            raise CatalogError(f"{path}:{row_no}: {exc}") from exc
    return mapping


def load_catalog(path: str | Path, kind: str,
                 dictionary: dict[str, VaPoint] | None = None) -> list[TaggedItem]:
    """Read a catalog CSV: id,path,valence,arousal or id,path,emotion_label."""
    items: list[TaggedItem] = []
    seen: set[str] = set()
    layout, rows = _read_csv(path, {"id", "path", "valence", "arousal"},
                             {"id", "path", "emotion_label"})
    labeled = layout == 1
    if labeled and dictionary is None:
        raise CatalogError(f"{path}: emotion_label catalog needs a VA dictionary")
    for row_no, row in rows:
        if row["id"] in seen:
            raise CatalogError(f"{path}:{row_no}: duplicate id {row['id']!r}")
        seen.add(row["id"])
        try:
            if labeled:
                label = row["emotion_label"]
                if label not in dictionary:
                    raise CatalogError(f"label {label!r} not in dictionary")
                va = dictionary[label]
            else:
                va = VaPoint(float(row["valence"]), float(row["arousal"]))
        except (ValueError, OutOfRange) as exc:
            raise CatalogError(f"{path}:{row_no}: {exc}") from exc
        items.append(TaggedItem(id=row["id"], kind=kind, va=va, payload_path=row["path"]))
    return items


def save_manifest(manifest: PairManifest, path: str | Path) -> None:
    pairs = [dict(pair, similarity="inf") if pair["similarity"] == MAX_SIMILARITY else pair
             for pair in manifest.pairs]
    payload = {"format": "emogen-pair-manifest-v1", "seed": manifest.seed,
               "config_hash": manifest.config_hash, "pairs": pairs}
    write_atomic(path, [(json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()])


def load_manifest(path: str | Path) -> PairManifest:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    # ValueError: bad JSON or bad UTF-8; RecursionError: JSON nested too deeply
    except (ValueError, RecursionError) as exc:
        raise CatalogError(f"{path}: {exc}") from exc
    if not (isinstance(payload, dict) and payload.get("format") == "emogen-pair-manifest-v1"
            and isinstance(payload.get("pairs"), list)):
        raise CatalogError(f"{path}: not a pair manifest")
    pairs = []
    for index, pair in enumerate(payload["pairs"]):
        if not (isinstance(pair, dict) and {"midi_id", "image_id", "similarity"} <= set(pair)):
            raise CatalogError(f"{path}: pair {index} lacks midi_id, image_id or similarity")
        if not (isinstance(pair["midi_id"], str) and isinstance(pair["image_id"], str)):
            raise CatalogError(f"{path}: pair {index} midi_id and image_id must be strings")
        if not isinstance(pair.get("split", ""), str):
            raise CatalogError(f"{path}: pair {index} split must be a string")
        score = MAX_SIMILARITY if pair["similarity"] == "inf" else pair["similarity"]
        # a bool, a string, NaN or below 0, which a reciprocal distance never is
        if type(score) not in (int, float) or not score >= 0:
            raise CatalogError(f"{path}: pair {index} similarity {score!r} is not a number >= 0")
        pairs.append(dict(pair, similarity=score))
    seed = payload.get("seed", 0)
    if type(seed) is not int:  # a bool is not a seed either
        raise CatalogError(f"{path}: seed {seed!r} is not an integer")
    return PairManifest(pairs=pairs, seed=seed, config_hash=payload.get("config_hash", ""))


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
