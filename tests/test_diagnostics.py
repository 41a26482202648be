from emogen.diagnostics import full_model_gradcheck
from emogen.model import EmoModel

from test_model import small_config


def test_full_model_gradcheck_covers_every_block():
    report = full_model_gradcheck()
    assert report.passed
    assert set(report.max_errors) == {name for name, _ in EmoModel(small_config()).parameters()}
