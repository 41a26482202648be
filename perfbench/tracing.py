"""Span tracing of emogen from outside the package.

`Tracer.install` wraps the public functions and methods the workloads
reach, patching each name where its consumer module looks it up, and
`Tracer.restore` puts the originals back. Spans stay in memory as
[name, layer, start, end, parent index, op index]; counters are kept at
the same boundaries. Nothing here is active in an untraced run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

from emogen import data, metrics, midi_io, model, pairing, tokenizer, training
from emogen.errors import EmogenError
from emogen.nn import layers as nn_layers
from emogen.nn import optim as nn_optim
from emogen.nn import tensor as nn_tensor

LAYERS = ("nn", "model", "training", "data", "tokenizer", "midi_io", "metrics", "pairing")


def _feature_read(tracer, span, args, result):
    source = args[1]
    if isinstance(source, (str, Path)):
        tracer.counts["feature_path_reads"] += 1
        tracer.feature_paths.add(str(source))


def _encoder_tokens(tracer, span, args, result):
    if tracer.parent_name(span) == "model.EmoModel.generate":
        tracer.counts["encoder_tokens_in_generate"] += len(args[1])


def _logit_rows(tracer, span, args, result):
    rows = result.shape[0]
    tracer.counts["logit_rows_projected"] += rows
    # generation reads only the last row; teacher forcing reads them all
    used = 1 if tracer.parent_name(span) == "model.EmoModel.generate" else rows
    tracer.counts["logit_rows_used"] += used


def _generated(tracer, span, args, result):
    tracer.counts["generated_tokens"] += len(result.ids) - 1


def _encoded(tracer, span, args, result):
    tracer.counts["tokenizer_tokens"] += len(result.ids)


def _decoded(tracer, span, args, result):
    tracer.counts["tokenizer_tokens"] += len(getattr(args[0], "ids", args[0]))


def _parsed(tracer, span, args, result):
    tracer.counts["bytes_parsed"] += len(args[0])


def _paired(tracer, span, args, result):
    tracer.counts["comparisons"] += len(args[0]) * len(args[1])


# (owner, attribute, layer, on_exit); functions are patched in every module
# that imported them by name, methods once on their class.
def _patch_table():
    return [
        (nn_tensor.Tensor, "backward", "nn", None),
        (nn_optim.Adam, "step", "nn", None),
        (nn_layers, "softmax", "nn", None),
        (model, "softmax", "nn", None),
        (training, "softmax", "nn", None),
        (model.EmoModel, "image_feature", "model", _feature_read),
        (model.EmoModel, "encode_midi", "model", _encoder_tokens),
        (model.EmoModel, "decode_logits", "model", _logit_rows),
        (model.EmoModel, "generate", "model", _generated),
        (model.EmoModel, "load", "model", None),
        (training, "fit", "training", None),
        (training, "cce_loss", "training", None),
        (training, "va_loss", "training", None),
        (data, "load_training_samples", "data", None),
        (tokenizer, "encode", "tokenizer", _encoded),
        (data, "encode", "tokenizer", _encoded),
        (tokenizer, "decode", "tokenizer", _decoded),
        (midi_io, "parse_midi", "midi_io", _parsed),
        (data, "parse_midi", "midi_io", _parsed),
        (midi_io, "write_midi", "midi_io", None),
        (metrics, "evaluate_piece", "metrics", None),
        (pairing, "pair_datasets", "pairing", _paired),
        (pairing, "split", "pairing", None),
    ]


def _span_name(owner, attr: str, layer: str) -> str:
    if isinstance(owner, type):
        return f"{layer}.{owner.__name__}.{attr}"
    return f"{layer}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rejected: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.feature_paths: set[str] = set()
        self.op = -1  # index of the operation in progress; spans of one op share it
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def parent_name(self, span) -> str | None:
        return self.spans[span[4]][0] if span[4] >= 0 else None

    def _wrap(self, fn, name: str, layer: str, on_exit):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except EmogenError:
                tracer.rejected[name] += 1
                raise
            except Exception:
                tracer.failed[name] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(tracer, span, args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, layer, on_exit in _patch_table():
            raw = vars(owner)[attr]
            name = _span_name(owner, attr, layer)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, layer, on_exit))
            else:
                wrapped = self._wrap(raw, name, layer, on_exit)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    # --- reductions ---

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per layer outside that span's child spans; roots sum to the total."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for span, seconds in zip(self.spans, own):
            out[span[1]] += seconds
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Tracer, window: Tracer, wall_s: float, untraced_s: float) -> dict:
    """Per-layer metrics: setup-phase spans from `setup`, the rest from `window`."""
    t, n, c = window.totals(), window.calls(), window.counts
    setup_t = setup.totals()
    backward, adam = t["nn.Tensor.backward"], t["nn.Adam.step"]
    own = window.self_times()
    values = {
        "nn.backward_s": (backward, "s"),
        "nn.adam_s": (adam, "s"),
        "nn.softmax_s": (t["nn.softmax"], "s"),
        "model.image_feature_calls": (n["model.EmoModel.image_feature"], "count"),
        "model.image_feature_s": (t["model.EmoModel.image_feature"], "s"),
        "model.feature_reads_per_distinct": (
            _ratio(c["feature_path_reads"], len(window.feature_paths)), "ratio"),
        "model.encode_midi_s": (t["model.EmoModel.encode_midi"], "s"),
        "model.encode_midi_calls": (n["model.EmoModel.encode_midi"], "count"),
        "model.encoder_tokens_per_generated": (
            _ratio(c["encoder_tokens_in_generate"], c["generated_tokens"]), "ratio"),
        "model.decode_logits_s": (t["model.EmoModel.decode_logits"], "s"),
        "model.logit_rows_used_frac": (
            _ratio(c["logit_rows_used"], c["logit_rows_projected"]), "ratio"),
        "model.checkpoint_load_s": (setup_t["model.EmoModel.load"], "s"),
        "training.fit_s": (t["training.fit"], "s"),
        "training.forward_s": (max(0.0, t["training.fit"] - backward - adam), "s"),
        "training.cce_s": (t["training.cce_loss"], "s"),
        "training.va_loss_s": (t["training.va_loss"], "s"),
        "training.steps": (n["nn.Adam.step"], "count"),
        "data.load_samples_s": (setup_t["data.load_training_samples"], "s"),
        "tokenizer.encode_s": (t["tokenizer.encode"], "s"),
        "tokenizer.decode_s": (t["tokenizer.decode"], "s"),
        "tokenizer.tokens": (c["tokenizer_tokens"], "count"),
        "midi_io.parse_s": (t["midi_io.parse_midi"], "s"),
        "midi_io.write_s": (t["midi_io.write_midi"], "s"),
        "midi_io.bytes_parsed": (c["bytes_parsed"], "count"),
        "midi_io.rejected": (window.rejected["midi_io.parse_midi"], "count"),
        "midi_io.failed": (window.failed["midi_io.parse_midi"], "count"),
        "metrics.evaluate_s": (t["metrics.evaluate_piece"], "s"),
        "metrics.rejected": (window.rejected["metrics.evaluate_piece"], "count"),
        "pairing.pair_s": (t["pairing.pair_datasets"], "s"),
        "pairing.split_s": (t["pairing.split"], "s"),
        "pairing.comparisons": (c["comparisons"], "count"),
    }
    covered = sum(own.values())
    for layer in LAYERS:
        values[f"self_s.{layer}"] = (own[layer], "s")
    values["self_s.bench"] = (wall_s - covered, "s")
    values["trace.wall_s"] = (wall_s, "s")
    values["trace.coverage"] = (_ratio(covered, wall_s), "ratio")
    values["trace.overhead_frac"] = (_ratio(wall_s, untraced_s) - 1.0, "ratio")
    values["trace.spans"] = (len(window.spans), "count")
    return values
