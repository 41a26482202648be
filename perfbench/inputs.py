"""Seeded synthetic inputs for the emogen benchmark.

Everything the program receives is made here from a numpy Generator seeded
by the workload seed: Standard MIDI File bytes, VA catalogs, `.emf` image
features and the pair manifest. The files are written with this module's
own encoders, so the program only ever sees finished files or bytes. The
same seed gives the same bytes.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

STEPS_PER_MEASURE = 16  # sixteenth-note grid, 4/4
MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
PROGRESSION = ((0, 4, 7), (7, 11, 14), (9, 12, 16), (5, 9, 12))  # I V vi IV
TICKS_PER_BEAT_CHOICES = (96, 192, 240, 384, 480)
FEATURE_DIM = 512
FEATURE_MAGIC = b"EMGFEAT1"


# --- music ---

def compose(rng: np.random.Generator, n_notes: int,
            min_measures: int = 2) -> list[tuple[int, int, int, int]]:
    """Whole measures of a looped chord progression under a repeating melody rhythm.

    Stops at the first measure boundary with at least `n_notes` notes and
    `min_measures` measures. Notes are (onset step, pitch, duration steps, velocity)
    on a 16th grid. The melody rhythm repeats from measure to measure with
    occasional variation, so groove consistency and polyphony are both
    non-trivial. The melody never doubles a chord pitch, so no two notes of
    one pitch overlap.
    """
    key = int(rng.integers(48, 60))
    base_velocity = int(rng.integers(50, 100))
    onsets = sorted({0, *rng.choice(np.arange(1, STEPS_PER_MEASURE),
                                    size=int(rng.integers(3, 7)), replace=False).tolist()})
    half_chords = bool(rng.integers(2))
    notes: list[tuple[int, int, int, int]] = []
    measure = 0
    while len(notes) < n_notes or measure < min_measures:
        start = measure * STEPS_PER_MEASURE
        chord = PROGRESSION[measure % len(PROGRESSION)]
        chord_len = STEPS_PER_MEASURE // 2 if half_chords else STEPS_PER_MEASURE
        for offset in range(0, STEPS_PER_MEASURE, chord_len):
            for interval in chord:
                notes.append((start + offset, key + interval, chord_len, base_velocity - 10))
        pattern = list(onsets)
        if rng.random() < 0.2:  # vary one onset of this measure
            pattern[int(rng.integers(1, len(pattern)))] = int(rng.integers(1, STEPS_PER_MEASURE))
            pattern = sorted(set(pattern))
        for j, step in enumerate(pattern):
            end = pattern[j + 1] if j + 1 < len(pattern) else STEPS_PER_MEASURE
            degree = int(rng.integers(0, 2 * len(MAJOR_SCALE)))
            pitch = key + 12 + 12 * (degree // 7) + MAJOR_SCALE[degree % 7]
            if pitch - key in chord:
                pitch += 12
            velocity = int(np.clip(base_velocity + rng.integers(-12, 13), 1, 127))
            notes.append((start + step, pitch, end - step, velocity))
        measure += 1
    return sorted(notes, key=lambda n: (n[0], n[1]))


def compose_short(rng: np.random.Generator) -> list[tuple[int, int, int, int]]:
    """A fragment ending before step 32, too short for groove consistency."""
    key = int(rng.integers(48, 60))
    notes = [(0, key + interval, 8, 70) for interval in PROGRESSION[0]]
    for step in sorted(rng.choice(np.arange(0, 20), size=int(rng.integers(2, 6)), replace=False)):
        notes.append((int(step), key + 12 + MAJOR_SCALE[int(rng.integers(0, 7))],
                      int(rng.integers(1, 5)), int(rng.integers(40, 110))))
    return sorted(notes, key=lambda n: (n[0], n[1]))


# --- Standard MIDI File encoding ---

def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _track(events: list[tuple[int, int, bytes]], running_status: bool) -> bytes:
    """Chunk for (tick, order, message) events; order sorts offs before ons."""
    body = bytearray()
    tick = 0
    status = None
    for at, _, message in sorted(events, key=lambda e: (e[0], e[1])):
        body += _vlq(at - tick)
        tick = at
        if running_status and message[0] == status and message[0] < 0xF0:
            body += message[1:]
        else:
            body += message
        status = message[0] if message[0] < 0xF0 else None
    body += b"\x00\xff\x2f\x00"
    return b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def smf_bytes(rng: np.random.Generator, notes: list[tuple[int, int, int, int]]) -> bytes:
    """Encode grid notes as SMF bytes with a seeded mix of encoder choices.

    The choices vary what the parser sees: ticks per beat, format 0 or 1,
    running status, note-off as 0x80 or as a zero-velocity note-on, and
    meta, program-change and controller events it must skip.
    """
    tpb = int(rng.choice(TICKS_PER_BEAT_CHOICES))
    ticks = tpb // 4
    channel = int(rng.integers(0, 4))
    zero_velocity_off = bool(rng.integers(2))
    running_status = bool(rng.integers(2))
    tempo = int(rng.integers(400_000, 750_000))
    meta = [(0, 0, b"\xff\x03\x05piano"), (0, 0, b"\xff\x58\x04\x04\x02\x18\x08")]
    tempo_event = (0, 0, b"\xff\x51\x03" + tempo.to_bytes(3, "big"))
    notes_events = [(0, 1, bytes([0xC0 | channel, 0])), (0, 1, bytes([0xB0 | channel, 7, 100]))]
    for onset, pitch, duration, velocity in notes:
        notes_events.append((onset * ticks, 3, bytes([0x90 | channel, pitch, velocity])))
        off = bytes([0x90 | channel, pitch, 0]) if zero_velocity_off else bytes([0x80 | channel, pitch, 64])
        notes_events.append(((onset + duration) * ticks, 2, off))
    if rng.integers(2):
        tracks = [_track(meta + [tempo_event] + notes_events, running_status)]
    else:
        tracks = [_track(meta + [tempo_event], running_status), _track(notes_events, running_status)]
    header = b"MThd" + struct.pack(">IHHH", 6, 0 if len(tracks) == 1 else 1, len(tracks), tpb)
    return header + b"".join(tracks)


def mutate(rng: np.random.Generator, data: bytes) -> bytes:
    """Overwrite 1 to 4 random bytes with different random values."""
    out = bytearray(data)
    for pos in rng.choice(len(out), size=int(rng.integers(1, 5)), replace=False):
        out[pos] = (out[pos] + int(rng.integers(1, 256))) % 256
    return bytes(out)


# --- catalogs, features and manifests ---

def va_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) valence/arousal points, uniform over [1, 9]^2."""
    return rng.uniform(1.0, 9.0, size=(n, 2))


def write_catalog(path: Path, ids: list[str], payloads: list[str], va: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "path", "valence", "arousal"])
        for item_id, payload, (valence, arousal) in zip(ids, payloads, va):
            writer.writerow([item_id, payload, repr(float(valence)), repr(float(arousal))])


def write_feature(path: Path, vector: np.ndarray) -> None:
    """`.emf` layout: magic, version 1, value count, little-endian float32 values."""
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC + struct.pack("<II", 1, vector.size))
        fh.write(np.asarray(vector, dtype="<f4").tobytes())


def nearest(midi_va, image_va: np.ndarray, image_ids: list[str]) -> int:
    """Index of the closest image by squared VA distance, ties to the smaller id."""
    best = None
    for j, (valence, arousal) in enumerate(image_va):
        key = ((midi_va[0] - valence) ** 2 + (midi_va[1] - arousal) ** 2, image_ids[j])
        if best is None or key < best[0]:
            best = (key, j)
    return best[1]


def write_manifest(path: Path, pairs: list[dict], seed: int) -> None:
    """Pair manifest in the `emogen-pair-manifest-v1` JSON layout."""
    payload = {"format": "emogen-pair-manifest-v1", "seed": seed, "config_hash": "",
               "pairs": [dict(p, similarity="inf" if math.isinf(p["similarity"]) else p["similarity"])
                         for p in pairs]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def training_set(rng: np.random.Generator, workdir: Path, note_counts: list[int],
                 n_images: int, seed: int) -> dict:
    """SMF files, `.emf` features, both catalogs and an all-train manifest.

    Each MIDI is paired with its nearest image in VA space. Returns the
    file paths and each MIDI id's VA label.
    """
    midi_ids = [f"m{i:04d}" for i in range(len(note_counts))]
    image_ids = [f"i{i:04d}" for i in range(n_images)]
    midi_paths, image_paths = [], []
    for midi_id, n_notes in zip(midi_ids, note_counts):
        path = workdir / f"{midi_id}.mid"
        path.write_bytes(smf_bytes(rng, compose(rng, n_notes, min_measures=1)))
        midi_paths.append(str(path))
    for image_id in image_ids:
        path = workdir / f"{image_id}.emf"
        write_feature(path, rng.normal(size=FEATURE_DIM))
        image_paths.append(str(path))
    midi_va, image_va = va_points(rng, len(midi_ids)), va_points(rng, n_images)
    files = {"midi_catalog": workdir / "midis.csv", "image_catalog": workdir / "images.csv",
             "manifest": workdir / "pairs.json"}
    write_catalog(files["midi_catalog"], midi_ids, midi_paths, midi_va)
    write_catalog(files["image_catalog"], image_ids, image_paths, image_va)
    pairs = []
    for midi_id, va in zip(midi_ids, midi_va):
        j = nearest(va, image_va, image_ids)
        d2 = float(((va - image_va[j]) ** 2).sum())
        pairs.append({"midi_id": midi_id, "image_id": image_ids[j], "split": "train",
                      "similarity": math.inf if d2 == 0.0 else d2 ** -0.5})
    write_manifest(files["manifest"], pairs, seed)
    return {"files": {k: str(v) for k, v in files.items()},
            "labels": {m: (float(v), float(a)) for m, (v, a) in zip(midi_ids, midi_va)}}


def stratified(rng: np.random.Generator, lo: int, hi: int, strata: int) -> list[int]:
    """One uniform draw from each of `strata` equal slices of [lo, hi]."""
    edges = np.linspace(lo, hi, strata + 1)
    return [int(rng.integers(int(edges[s]), int(edges[s + 1]) + 1)) for s in range(strata)]
