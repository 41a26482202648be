"""Assembling in-memory training sets from manifest + catalog files."""

from __future__ import annotations

from pathlib import Path

from .config import DataConfig, ModelConfig
from .errors import MissingArtifacts
from .midi_io import parse_midi
from .pairing import load_catalog, load_manifest, load_va_dictionary
from .training import TrainSample
from .tokenizer import encode


def read_midi_ids(path: str | Path, model_cfg: ModelConfig) -> tuple[int, ...]:
    """Token ids of the MIDI file at `path` in the model's vocabulary; a file
    that cannot be read is a MissingArtifacts."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise MissingArtifacts(f"cannot read MIDI {path}: {exc}") from exc
    return encode(parse_midi(raw), model_cfg.vocabulary(), model_cfg.steps_per_beat,
                  model_cfg.max_len).ids


def load_training_samples(data_cfg: DataConfig, model_cfg: ModelConfig,
                          split: str | None = None) -> list[TrainSample]:
    """Resolve manifest pairs of a split into tokenized TrainSamples.

    MIDI payloads are parsed and encoded with the model vocabulary; image
    payloads stay as `.emf` feature-file paths, read by the model at forward
    time.
    """
    split = split if split is not None else data_cfg.split
    for field_name in ("manifest", "midi_catalog", "image_catalog"):
        value = getattr(data_cfg, field_name)
        if not value:
            raise MissingArtifacts(f"data.{field_name} is not set")
        if not Path(value).exists():
            raise MissingArtifacts(f"data.{field_name}: {value} does not exist")

    dictionary = (load_va_dictionary(data_cfg.dictionary)
                  if data_cfg.dictionary else None)
    midis = {item.id: item for item in load_catalog(data_cfg.midi_catalog, "midi", dictionary)}
    images = {item.id: item for item in load_catalog(data_cfg.image_catalog, "image", dictionary)}
    manifest = load_manifest(data_cfg.manifest)

    samples: list[TrainSample] = []
    for pair in manifest.pairs:
        if split and pair.get("split", "") != split:
            continue
        midi_id, image_id = pair["midi_id"], pair["image_id"]
        if midi_id not in midis:
            raise MissingArtifacts(f"manifest MIDI id {midi_id!r} not in catalog")
        if image_id not in images:
            raise MissingArtifacts(f"manifest image id {image_id!r} not in catalog")
        samples.append(TrainSample(image=images[image_id].payload_path,
                                   token_ids=read_midi_ids(midis[midi_id].payload_path, model_cfg),
                                   pair_id=f"{midi_id}:{image_id}"))
    if not samples:
        raise MissingArtifacts(
            f"no pairs with split {split!r} in {data_cfg.manifest} (pairs per split tag: "
            f"{manifest.split_counts()}); tag the pairs with `emogen pair --split "
            f"TRAIN,TEST,VAL`, or set data.split to \"\" to train on every pair")
    return samples
