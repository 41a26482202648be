import math

import numpy as np
import pytest

from emogen.diagnostics import context_gap, full_model_gradcheck
from emogen.errors import CatalogTooSmall
from emogen.model import IMAGE_FEATURE_DIM, EmoModel
from emogen.tokenizer import BOS, EOS, PAD
from emogen.training import TrainSample

from test_model import small_config


def _samples(n=3):
    rng = np.random.default_rng(31)
    return [TrainSample(rng.normal(size=IMAGE_FEATURE_DIM),
                        np.concatenate([[BOS], rng.integers(3, 40, size=4 + i), [EOS], [PAD] * i]),
                        f"s{i}") for i in range(n)]


@pytest.mark.parametrize("context", ["fixed", "prefix"])
def test_context_gap_is_finite(context):
    gap = context_gap(EmoModel(small_config(context=context)), _samples())
    assert set(gap) == {"full_target", "bos_only", "other_target"}
    assert all(math.isfinite(value) and value > 0 for value in gap.values())


def test_context_gap_of_a_fixed_model_is_identical():
    gap = context_gap(EmoModel(small_config(dtype="float64")), _samples())
    assert gap["full_target"] == gap["bos_only"] == gap["other_target"]


def test_context_gap_of_a_prefix_model_differs():
    gap = context_gap(EmoModel(small_config(dtype="float64", context="prefix")), _samples())
    assert len(set(gap.values())) == 3


def test_context_gap_needs_a_sample():
    with pytest.raises(CatalogTooSmall):
        context_gap(EmoModel(small_config()), [])


def test_full_model_gradcheck_covers_both_contexts():
    report = full_model_gradcheck(max_coords_per_block=4)
    assert report.passed
    contexts = {name.split(":")[0] for name in report.max_errors}
    assert contexts == {"fixed", "prefix"}
    assert len(report.max_errors) == 2 * len(EmoModel(small_config()).parameters())
