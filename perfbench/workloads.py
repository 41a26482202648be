"""The benchmark's three workloads: train, generate and corpus.

Each workload builds its inputs in `setup`, performs operation `i` in
`op(state, i)` and validates the outputs in `check`. The work of an
operation depends only on its index, so the traced run can time each
operation both untraced and traced. The runner in run.py does all timing.

The library is called through module attributes (`midi_io.parse_midi`,
not an imported name) so that the tracer's patches see every call.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emogen import data, metrics, midi_io, model, pairing, tokenizer, training
from emogen.config import DataConfig
from emogen.errors import EmogenError, TooShort

import inputs

TINY_MODEL = dict(encoder_blocks=1, decoder_blocks=1, model_dim=16, head_count=2,
                  ff_dim=32, max_len=24)


@dataclass
class OpRecord:
    """One operation's outcome; `units` is the work it completed."""

    kind: str
    units: float = 0.0
    # ok | rejected (typed EmogenError) | untyped (other exception on a corrupt
    # input) | failed (other exception on a valid or too-short input)
    outcome: str = "ok"
    seconds: float = 0.0
    detail: object = None


# --- train ---

@dataclass
class TrainState:
    net: model.EmoModel
    predictor: model.VaPredictor
    samples: list
    config: training.TrainConfig
    rng: np.random.Generator
    workdir: Path
    schedule: list = field(default_factory=list)


class Train:
    """`training.fit` on length-stratified batches of 8, one Adam step per op.

    Every batch holds one sample from each length octile, so steps cost
    about the same and the step-time median is steady across seeds. Adam
    moments live on the parameters, so consecutive `fit` calls continue one
    optimisation exactly as a multi-step `fit` would.
    """

    name = "train"
    work_kind = op_kind = "step"
    work_unit, op_name = "tokens", "step_s"

    def __init__(self, tiny: bool):
        self.tiny = tiny
        self.batch_size = 4 if tiny else 8
        self.n_pieces = 2 * self.batch_size if tiny else 4 * self.batch_size
        self.n_images = 8 if tiny else 48
        self.predictor_epochs = 5 if tiny else 40
        self.model_overrides = TINY_MODEL if tiny else {}

    def config(self) -> dict:
        return {"batch_size": self.batch_size, "pieces": self.n_pieces, "images": self.n_images,
                "predictor_epochs": self.predictor_epochs, "model": self.model_overrides,
                "va_loss_mode": "hard"}

    @property
    def steps_per_epoch(self) -> int:
        return self.n_pieces // self.batch_size

    def min_ops(self) -> int:
        return 2 * self.steps_per_epoch  # the loss check compares two whole epochs

    def setup(self, seed: int, workdir: Path) -> TrainState:
        rng = np.random.default_rng(seed)
        # 4..85 notes encode to ~30 tokens up to the 256-token cap
        note_counts = inputs.stratified(rng, 4, 12 if self.tiny else 85, self.n_pieces)
        made = inputs.training_set(rng, workdir, note_counts, self.n_images, seed)
        model_cfg = model.ModelConfig(seed=seed, **self.model_overrides)
        samples = data.load_training_samples(DataConfig(**made["files"]), model_cfg, split="train")
        labeled = [(s.token_ids, made["labels"][s.pair_id.split(":")[0]]) for s in samples]
        predictor, _ = training.pretrain_va_predictor(
            labeled, model_cfg.vocabulary().total_size, hidden=model_cfg.va_hidden,
            epochs=self.predictor_epochs, seed=seed)
        config = training.TrainConfig(batch_size=self.batch_size, epochs=1, seed=seed,
                                      va_loss_mode="hard")
        return TrainState(model.EmoModel(model_cfg), predictor, samples, config, rng, workdir)

    def _batch(self, state: TrainState, i: int) -> list:
        while len(state.schedule) <= i:
            by_length = sorted(range(len(state.samples)),
                               key=lambda k: (len(state.samples[k].token_ids), k))
            n = self.steps_per_epoch
            strata = [state.rng.permutation(by_length[g * n:(g + 1) * n])
                      for g in range(self.batch_size)]
            batches = [[int(stratum[j]) for stratum in strata] for j in range(n)]
            state.schedule.extend(batches[j] for j in state.rng.permutation(n))
        return [state.samples[k] for k in state.schedule[i]]

    def op(self, state: TrainState, i: int) -> OpRecord:
        batch = self._batch(state, i)
        (stats,) = training.fit(state.net, batch, state.config, state.predictor)
        tokens = sum(int(np.count_nonzero(np.asarray(s.token_ids[1:]) != tokenizer.PAD))
                     for s in batch)
        return OpRecord("step", units=tokens,
                        detail=(i // self.steps_per_epoch, stats.l_cc, stats.l_va))

    def check(self, state: TrainState, records: list[OpRecord]) -> dict[str, bool]:
        losses = [r.detail for r in records]
        by_epoch: dict[int, list[float]] = {}
        for epoch, l_cc, _ in losses:
            by_epoch.setdefault(epoch, []).append(l_cc)
        whole = [e for e, values in sorted(by_epoch.items()) if len(values) == self.steps_per_epoch]
        path = state.workdir / "trained.emc"
        state.net.save(path)
        loaded = dict(model.EmoModel.load(path).parameters())
        saved = dict(state.net.parameters())
        return {
            "train_loss_finite": all(math.isfinite(c) and math.isfinite(v) for _, c, v in losses),
            "train_last_epoch_lcc_below_first": len(whole) >= 2 and (
                statistics.fmean(by_epoch[whole[-1]]) < statistics.fmean(by_epoch[whole[0]])),
            "train_checkpoint_roundtrip_identical": saved.keys() == loaded.keys() and all(
                saved[k].data.dtype == loaded[k].data.dtype
                and np.array_equal(saved[k].data, loaded[k].data) for k in saved),
        }


# --- generate ---

@dataclass
class GenerateState:
    net: model.EmoModel
    features: list[str]


class Generate:
    """Greedy generation to the model's full `max_len` from distinct `.emf` files.

    The checkpoint's EOS bias is set very negative before saving, so no
    piece stops early and every piece does the same amount of work.
    """

    name = "generate"
    work_kind = op_kind = "piece"
    work_unit, op_name = "tokens", "piece_s"

    def __init__(self, tiny: bool):
        self.n_features = 4 if tiny else 16
        self.model_overrides = TINY_MODEL if tiny else {}

    def config(self) -> dict:
        return {"features": self.n_features, "model": self.model_overrides, "strategy": "greedy"}

    def min_ops(self) -> int:
        return 1

    def setup(self, seed: int, workdir: Path) -> GenerateState:
        rng = np.random.default_rng(seed)
        features = []
        for k in range(self.n_features):
            path = workdir / f"f{k:03d}.emf"
            inputs.write_feature(path, rng.normal(size=inputs.FEATURE_DIM))
            features.append(str(path))
        net = model.EmoModel(model.ModelConfig(seed=seed, **self.model_overrides))
        net.out_proj.bias.data[tokenizer.EOS] = -1e4
        checkpoint = workdir / "generator.emc"
        net.save(checkpoint)
        return GenerateState(model.EmoModel.load(checkpoint), features)

    def op(self, state: GenerateState, i: int) -> OpRecord:
        net = state.net
        seq = net.generate(state.features[i % len(state.features)])
        piece = tokenizer.decode(seq, net.vocab, net.config.steps_per_beat)
        smf = midi_io.write_midi(piece)
        return OpRecord("piece", units=len(seq.ids) - 1, detail=(seq.ids, smf[:4]))

    def check(self, state: GenerateState, records: list[OpRecord]) -> dict[str, bool]:
        size, limit = state.net.vocab.total_size, state.net.config.max_len
        seqs = [r.detail[0] for r in records]
        return {
            "generate_ids_in_vocabulary": all(0 <= t < size for ids in seqs for t in ids),
            "generate_starts_with_bos": all(ids[0] == tokenizer.BOS for ids in seqs),
            "generate_reaches_max_len": all(len(ids) == limit for ids in seqs),
            "generate_writes_smf": all(r.detail[1] == b"MThd" for r in records),
        }


# --- corpus ---

@dataclass
class CorpusState:
    midis: list
    images: list
    pool: list[tuple[str, bytes]]  # (clean | short | corrupt, SMF bytes)
    vocab: tokenizer.Vocabulary
    seed: int
    manifest: pairing.PairManifest | None = None


class Corpus:
    """Pairing and split of a VA catalog, then the file pipeline over SMF bytes.

    Operations come in cycles: one pairing and split of the catalog, then
    `pieces_per_pair` pieces through parse, encode, decode, write and
    metrics. Spreading the pairings over the run lets their timings sample
    different stretches of machine load. The piece pool cycles in blocks of
    ten: eight clean pieces (one per note-count stratum), one too short for
    the metrics and one with 1 to 4 bytes overwritten.
    """

    name = "corpus"
    work_kind, op_kind = "piece", "pair"
    work_unit, op_name = "pieces", "pair_s"
    block_size = 10  # 8 clean, 1 short, 1 corrupt
    # corrupt pieces whose piano roll would be longer are redrawn, so a
    # mutated delta time cannot make one piece cost more than a clean one
    max_roll_steps = 1024

    def __init__(self, tiny: bool):
        self.n_midis, self.n_images = (60, 50) if tiny else (3000, 3000)
        self.counts = (50, 6, 4) if tiny else (2884, 100, 16)
        self.blocks = 2 if tiny else 40
        self.notes = (8, 40) if tiny else (16, 256)
        self.pieces_per_pair = 20 if tiny else 1000
        self.check_rows = 8 if tiny else 64

    def config(self) -> dict:
        return {"catalog": [self.n_midis, self.n_images], "split": self.counts,
                "blocks": self.blocks, "notes": self.notes,
                "pieces_per_pair": self.pieces_per_pair}

    def min_ops(self) -> int:
        return 1 + self.block_size

    def _corrupt(self, rng: np.random.Generator, clean: bytes) -> bytes:
        """A mutated copy whose parsed piece, if any, keeps a bounded piano roll."""
        while True:
            candidate = inputs.mutate(rng, clean)
            try:
                piece = midi_io.parse_midi(candidate)
            except Exception:  # any parse outcome is a valid corrupt input
                return candidate
            end = max((n.end for n in piece.notes), default=0)
            if end * 4 // piece.ticks_per_beat <= self.max_roll_steps:
                return candidate

    def setup(self, seed: int, workdir: Path) -> CorpusState:
        rng = np.random.default_rng(seed)
        catalogs = {}
        for kind, n in (("midi", self.n_midis), ("image", self.n_images)):
            ids = [f"{kind[0]}{i:05d}" for i in range(n)]
            path = workdir / f"{kind}s.csv"
            inputs.write_catalog(path, ids, [f"{i}.bin" for i in ids], inputs.va_points(rng, n))
            catalogs[kind] = pairing.load_catalog(path, kind)
        pool: list[tuple[str, bytes]] = []
        for _ in range(self.blocks):
            block = [("clean", inputs.smf_bytes(rng, inputs.compose(rng, n)))
                     for n in inputs.stratified(rng, *self.notes, 8)]
            block.append(("short", inputs.smf_bytes(rng, inputs.compose_short(rng))))
            base = inputs.smf_bytes(rng, inputs.compose(rng, int(rng.integers(*self.notes))))
            block.append(("corrupt", self._corrupt(rng, base)))
            pool.extend(block[j] for j in rng.permutation(len(block)))
        return CorpusState(catalogs["midi"], catalogs["image"], pool,
                           tokenizer.Vocabulary(), seed)

    def op(self, state: CorpusState, i: int) -> OpRecord:
        cycle, offset = divmod(i, self.pieces_per_pair + 1)
        if offset == 0:
            manifest = pairing.pair_datasets(state.midis, state.images)
            state.manifest = pairing.split(manifest, self.counts, state.seed)
            return OpRecord("pair", units=len(state.manifest.pairs))
        position = cycle * self.pieces_per_pair + offset - 1
        kind, smf = state.pool[position % len(state.pool)]
        stage = "midi_io"
        try:
            piece = midi_io.parse_midi(smf)
            stage = "tokenizer"
            decoded = tokenizer.decode(tokenizer.encode(piece, state.vocab), state.vocab)
            stage = "midi_io"
            midi_io.write_midi(decoded)
            stage = "metrics"
            metrics.evaluate_piece(piece)
        except EmogenError as exc:
            return OpRecord("piece", 1, "rejected", detail=(kind, stage, type(exc).__name__))
        except Exception as exc:  # the run goes on
            # a corrupt input is refused either way; refusing it without the
            # library's error type is counted apart from failures (ROADMAP item 4)
            outcome = "untyped" if kind == "corrupt" else "failed"
            return OpRecord("piece", 1, outcome, detail=(kind, stage, type(exc).__name__))
        return OpRecord("piece", 1, detail=(kind, None, None))

    def check(self, state: CorpusState, records: list[OpRecord]) -> dict[str, bool]:
        manifest = state.manifest
        image_ids = [item.id for item in state.images]
        image_va = np.array([(item.va.valence, item.va.arousal) for item in state.images])
        rows = {p["midi_id"]: p for p in manifest.pairs}
        midis = {item.id: item for item in state.midis}
        sample = np.random.default_rng(state.seed).choice(sorted(rows), self.check_rows,
                                                          replace=False)
        nearest_ok = all(
            rows[m]["image_id"] == image_ids[inputs.nearest(
                (midis[m].va.valence, midis[m].va.arousal), image_va, image_ids)]
            for m in sample)
        pieces = [r.detail for r in records if r.kind == "piece"]
        roundtrip = True
        for kind, smf in state.pool:
            if kind == "clean":
                once = midi_io.write_midi(midi_io.parse_midi(smf))
                roundtrip &= midi_io.write_midi(midi_io.parse_midi(once)) == once
        return {
            "corpus_split_counts": manifest.split_counts() == dict(
                zip(("train", "test", "val"), self.counts)),
            "corpus_pairs_match_brute_force": nearest_ok,
            "corpus_clean_pieces_succeed": all(stage is None for kind, stage, _ in pieces
                                               if kind == "clean"),
            "corpus_short_pieces_rejected": all(err == TooShort.__name__
                                                for kind, _, err in pieces if kind == "short"),
            "corpus_roundtrip_byte_identical": roundtrip,
        }


WORKLOADS = {cls.name: cls for cls in (Train, Generate, Corpus)}
