"""Operator surface: pairing, pretraining, training, generation, metrics,
ablation sweeps, and gradient-check diagnostics.

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import metrics as metrics_mod
from ._files import write_atomic, write_csv
from .config import MetricConfig, RunConfig, read_json
from .data import load_training_samples, read_midi_ids
from .diagnostics import full_model_gradcheck, standard_gradchecks
from .errors import (ConfigError, CountMismatch, EmogenError, MissingArtifacts,
                     check_positive)
from .midi_io import parse_midi, write_midi
from .model import EmoModel, load_va_predictor, save_va_predictor
from .pairing import (MAX_SIMILARITY, config_hash, load_catalog,
                      load_va_dictionary, pair_datasets, save_manifest, split)
from .tokenizer import EOS, decode
from .training import fit, pretrain_va_predictor

VALIDATION_ERRORS = (ConfigError, CountMismatch, MissingArtifacts)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EmogenError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, VALIDATION_ERRORS) else 2
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # say, a config asking for sizes beyond this machine's memory
        print(f"error [memory]: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emogen",
                                     description="Emotion-aligned image-to-MIDI toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="build the emotionally paired dataset manifest")
    p.add_argument("--images", required=True, help="image catalog CSV")
    p.add_argument("--midis", required=True, help="MIDI catalog CSV")
    p.add_argument("--dictionary", help="emotion-label -> VA dictionary CSV")
    p.add_argument("--out", required=True, help="output manifest path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", help="train,test,val counts, e.g. 2884,100,16")
    p.set_defaults(handler=cmd_pair)

    p = sub.add_parser("pretrain-va", help="pretrain the Valence-Arousal predictor")
    p.add_argument("--midis", required=True, help="VA-labeled MIDI catalog CSV")
    p.add_argument("--config", help="run config JSON (vocab + model settings)")
    p.add_argument("--out", required=True, help="output predictor weights path")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_pretrain_va)

    p = sub.add_parser("train", help="train the image-to-MIDI model")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("generate", help="generate a MIDI file from an image")
    p.add_argument("--image", required=True, help=".emf feature file of the image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output .mid path")
    p.add_argument("--strategy", choices=["greedy", "temperature"], default="greedy")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("metrics", help="evaluate music-quality metrics over MIDI files")
    p.add_argument("--midi-dir", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--summary", help="optional Markdown summary table path")
    p.add_argument("--steps-per-beat", type=int, default=4)
    p.add_argument("--steps-per-measure", type=int, default=16)
    p.add_argument("--polyphony-denominator", choices=["sounding", "total"],
                   default="sounding")
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("gradcheck", help="finite-difference check of all blocks")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run an ablation grid of model variants")
    p.add_argument("--config-grid", required=True, help="grid JSON: base config + variants")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_ablate)

    return parser


# --- subcommand handlers ---

def cmd_pair(args) -> int:
    dictionary = load_va_dictionary(args.dictionary) if args.dictionary else None
    midis = load_catalog(args.midis, "midi", dictionary)
    images = load_catalog(args.images, "image", dictionary)
    manifest = pair_datasets(midis, images)
    manifest.config_hash = config_hash({"images": str(args.images),
                                        "midis": str(args.midis), "seed": args.seed})
    manifest.seed = args.seed
    if args.split:
        try:
            counts = tuple(int(c) for c in args.split.split(","))
        except ValueError as exc:
            raise ConfigError(f"--split must be three integers: {exc}") from exc
        if len(counts) != 3:
            raise ConfigError("--split needs exactly three comma-separated counts")
        manifest = split(manifest, counts, args.seed)
    save_manifest(manifest, args.out)

    finite = [p["similarity"] for p in manifest.pairs if p["similarity"] != MAX_SIMILARITY]
    print(f"pairs: {len(manifest.pairs)}")
    if finite:
        print(f"similarity: min {min(finite):.4f}  mean {sum(finite) / len(finite):.4f}  "
              f"max {max(finite):.4f}  (plus {len(manifest.pairs) - len(finite)} exact matches)")
    if args.split:
        print(f"split sizes: {manifest.split_counts()}")
    return 0


def cmd_pretrain_va(args) -> int:
    run_cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    model_cfg = run_cfg.model
    vocab = model_cfg.vocabulary()
    samples = [(read_midi_ids(item.payload_path, model_cfg), (item.va.valence, item.va.arousal))
               for item in load_catalog(args.midis, "midi")]
    predictor, report = pretrain_va_predictor(
        samples, vocab.total_size, hidden=model_cfg.va_hidden,
        epochs=args.epochs, lr=args.lr, seed=args.seed)
    save_va_predictor(args.out, predictor, vocab.vocab_hash, extra={"report": report})
    print(f"pretrained on {report['n_train']} pieces; "
          f"train MAE {report['train_mae']:.4f}  holdout MAE {report['holdout_mae']:.4f}")
    return 0


def cmd_train(args) -> int:
    run_cfg = RunConfig.from_file(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_cfg.echo(out_dir)
    _train_one(run_cfg, out_dir)
    print(f"checkpoint: {out_dir / 'checkpoint.emc'}")
    print(f"loss curve: {out_dir / 'loss.csv'}")
    return 0


def _train_one(run_cfg: RunConfig, out_dir: Path) -> EmoModel:
    model = EmoModel(run_cfg.model)
    samples = load_training_samples(run_cfg.data, run_cfg.model)
    predictor = None
    if run_cfg.train.uses_va:
        if not run_cfg.data.va_predictor:
            raise MissingArtifacts("train.va_loss_mode needs data.va_predictor weights")
        predictor = load_va_predictor(run_cfg.data.va_predictor,
                                      model.vocab.vocab_hash)
    fit(model, samples, run_cfg.train, predictor=predictor,
        loss_csv=out_dir / "loss.csv")
    model.save(out_dir / "checkpoint.emc",
               extra={"train": asdict(run_cfg.train)})
    return model


def cmd_generate(args) -> int:
    model = EmoModel.load(args.checkpoint)
    tokens = model.generate(args.image, max_len=args.max_len,
                            strategy=args.strategy, temperature=args.temperature,
                            seed=args.seed)
    piece = decode(tokens, model.vocab, model.config.steps_per_beat)
    write_atomic(args.out, [write_midi(piece)])
    stop = "eos" if tokens.ids[-1] == EOS else "max_len"
    print(f"{args.out}: {len(tokens)} tokens, {len(piece)} notes (stopped at {stop})")
    return 0


def cmd_metrics(args) -> int:
    cfg = MetricConfig(args.steps_per_beat, args.steps_per_measure, args.polyphony_denominator)
    midi_dir = Path(args.midi_dir)
    paths = sorted(midi_dir.rglob("*.mid")) + sorted(midi_dir.rglob("*.midi"))
    if not paths:
        raise MissingArtifacts(f"no .mid files under {midi_dir}")
    rows, errors, mean_loss, mean = _score(paths, lambda path: parse_midi(path.read_bytes()), cfg)
    write_csv(args.out, [["path", "polyphony_rate", "pitch_entropy",
                          "groove_consistency", "music_quality_loss"]]
              + [[path, *_triple_cells(triple), f"{loss:.6f}"] for path, triple, loss in rows]
              + [["MEAN", *_triple_cells(mean), f"{mean_loss:.6f}"]])
    if args.summary:
        write_atomic(args.summary, [_summary_table([("corpus_mean", mean_loss, mean)]).encode()])
    for path, error in errors:
        print(f"skipped {path}: {error}", file=sys.stderr)
    print(f"{len(rows)} pieces evaluated, {len(errors)} skipped -> {args.out}")
    return 0


def _score(sources, read, cfg: MetricConfig):
    """Score the piece `read(source)` of each source by `cfg`, skipping any that
    fails with an EmogenError: the (source, triple, loss) rows, the skipped
    (source, error name) pairs, and the rows' mean loss and triple (NaN if none)."""
    rows, skipped = [], []
    for source in sources:
        try:
            rows.append((source, *metrics_mod.evaluate_piece(read(source), **asdict(cfg))))
        except EmogenError as exc:
            skipped.append((source, type(exc).__name__))
    mean_loss = sum(loss for _, _, loss in rows) / len(rows) if rows else math.nan
    return rows, skipped, mean_loss, metrics_mod.mean_triple(t for _, t, _ in rows)


def _summary_table(entries) -> str:
    lines = ["| Model | Music_Quality_Loss | Polyphony Rate | Pitch Entropy | Groove Consistency |",
             "|---|---|---|---|---|"]
    for name, loss, triple in entries:
        lines.append(f"| {name} | {loss:.4f} | {triple.polyphony_rate:.4f} "
                     f"| {triple.pitch_entropy:.4f} | {triple.groove_consistency:.4f} |")
    return "\n".join(lines) + "\n"


def cmd_gradcheck(args) -> int:
    check_positive("--tolerance", args.tolerance)
    reports = standard_gradchecks(tolerance=args.tolerance)
    reports["full_model"] = full_model_gradcheck(tolerance=args.tolerance)
    failed = False
    for name, report in reports.items():
        status = "ok" if report.passed else "FAIL"
        print(f"{name:16s} max rel err {report.worst:.3e}  {status}")
        failed = failed or not report.passed
    return 2 if failed else 0


def cmd_ablate(args) -> int:
    grid = read_json(args.config_grid)
    if not isinstance(grid, dict) or set(grid) - {"base", "variants"}:
        raise ConfigError("the grid must be an object with keys 'base' and 'variants'")
    base = RunConfig.from_dict(grid.get("base", {}))
    variants = grid.get("variants", [])
    if not isinstance(variants, list) or not variants:
        raise ConfigError("the grid needs a non-empty list of variants")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base.echo(out_dir, "base_config.json")

    results, taken = [], {"base_config.json", "ablation.csv", "ablation.md"}
    for index, variant in enumerate(variants):
        given = isinstance(variant, dict) and variant.get("name")
        name = str(given or f"variant{index}")
        repeated = name in taken
        taken.add(name)
        try:
            # the name is the variant's directory under out_dir, so it must be one
            # plain path component that neither the sweep's files nor an earlier
            # variant took
            if repeated or name in (".", "..") or Path(name).name != name or "\0" in name:
                raise ConfigError(f"variant {index}: name {name!r} is not one plain path "
                                  f"component, or is taken in the output directory")
            if not isinstance(variant, dict) or set(variant) - {"name", "model", "train"}:
                raise ConfigError(f"variant {index}: not an object of name, model and train")
            merged = asdict(base)
            for section in ("model", "train"):  # a non-object is left for from_dict to reject
                override = variant.get(section, {})
                merged[section] = ({**merged[section], **override}
                                   if isinstance(override, dict) else override)
            run_cfg = RunConfig.from_dict(merged)
            variant_dir = out_dir / name
            variant_dir.mkdir(parents=True, exist_ok=True)
            run_cfg.echo(variant_dir)
            model = _train_one(run_cfg, variant_dir)
            rows, _, loss, triple = _score(_generate_variant(model, run_cfg, variant_dir),
                                           lambda piece: piece, run_cfg.metrics)
            results.append({"name": name, "status": "ok", "loss": loss,
                            "triple": triple, "evaluated": len(rows)})
            print(f"{name}: quality loss {loss:.4f} over {len(rows)} generated pieces")
        except (EmogenError, OSError) as exc:
            results.append({"name": name, "status": f"failed: {type(exc).__name__}",
                            "loss": math.nan, "triple": None, "evaluated": 0})
            print(f"{name}: FAILED [{type(exc).__name__}] {exc}", file=sys.stderr)

    _write_ablation_tables(out_dir, results)
    print(f"ablation summary: {out_dir / 'ablation.md'}")
    return 0


def _generate_variant(model: EmoModel, run_cfg: RunConfig, variant_dir: Path) -> list:
    """Generate from the eval split's images, write each piece to `generated/` and
    return the pieces, to be scored as decoded: SMF cannot hold two notes of one
    pitch and onset, which `decode` can emit, so a file read back can differ."""
    eval_split = "val"
    try:
        samples = load_training_samples(run_cfg.data, run_cfg.model, split=eval_split)
    except MissingArtifacts:
        samples = load_training_samples(run_cfg.data, run_cfg.model,
                                        split=run_cfg.data.split)
    gen_dir = variant_dir / "generated"
    gen_dir.mkdir(exist_ok=True)
    pieces = []
    for i, sample in enumerate(samples):
        tokens = model.generate(sample.image, strategy="greedy",
                                seed=run_cfg.train.seed)
        pieces.append(decode(tokens, model.vocab, run_cfg.model.steps_per_beat))
        write_atomic(gen_dir / f"gen_{i:03d}.mid", [write_midi(pieces[-1])])
    return pieces


def _triple_cells(triple) -> list[str]:
    return [f"{triple.polyphony_rate:.6f}", f"{triple.pitch_entropy:.6f}",
            f"{triple.groove_consistency:.6f}"]


def _write_ablation_tables(out_dir: Path, results) -> None:
    header = ["model", "status", "music_quality_loss", "polyphony_rate", "pitch_entropy",
              "groove_consistency", "evaluated_pieces"]
    write_csv(out_dir / "ablation.csv", [header] + [
        [res["name"], res["status"], f"{res['loss']:.6f}",
         *(["", "", ""] if res["triple"] is None else _triple_cells(res["triple"])),
         res["evaluated"]] for res in results])
    entries = [(res["name"], res["loss"],
                res["triple"] or metrics_mod.MetricTriple(math.nan, math.nan, math.nan))
               for res in results]
    write_atomic(out_dir / "ablation.md", [_summary_table(entries).encode()])


if __name__ == "__main__":
    sys.exit(main())
