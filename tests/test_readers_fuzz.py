"""Fuzzed input files: every reader of outside data may only raise `EmogenError`."""

import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emogen.errors import EmogenError
from emogen.model import (CHECKPOINT_MAGIC, IMAGE_FEATURE_DIM, load_checkpoint,
                          read_feature_file, save_checkpoint, write_feature_file)
from emogen.nn import Parameter
from emogen.pairing import load_catalog
from emogen.tokenizer import Vocabulary, load_token_dataset

VOCAB = Vocabulary()
FUZZ = settings(max_examples=150, deadline=None)
DEEP = 100_000  # JSON nesting far past the interpreter's recursion limit


def checkpoint_bytes(meta: bytes, shape: tuple[int, ...]) -> bytes:
    """A container holding `meta` and one block "w" that claims `shape` but has
    no values."""
    return (CHECKPOINT_MAGIC + struct.pack("<I", len(meta)) + meta + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"w" + struct.pack("<B", len(shape))
            + struct.pack(f"<{len(shape)}I", *shape))


# (65536,)*4 holds 2**64 values, a count np.prod wraps to 0
OVERFLOW_CHECKPOINT = checkpoint_bytes(b'{"format_version": 1, "kind": "emomodel"}',
                                       (65536,) * 4)

# a fuzzed file: ("raw", bytes), or ("edit", cut, edits) applied to a valid
# file, with positions wrapped around its length
FILES = st.one_of(
    st.tuples(st.just("raw"), st.binary(max_size=200)),
    st.tuples(st.just("edit"), st.integers(0, 2**16),
              st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=8)))


def _file_bytes(file, valid: bytes) -> bytes:
    if file[0] == "raw":
        return file[1]
    _, cut, edits = file
    data = bytearray(valid)
    for pos, value in edits:
        data[pos % len(data)] = value
    return bytes(data[:cut % (len(data) + 1)])


_names = itertools.count()


def _only_typed_errors(read, directory, data: bytes) -> None:
    # a new file each time: truncating an existing one is slow on some filesystems
    path = directory / f"fuzz{next(_names)}"
    path.write_bytes(data)
    try:
        result = read(path)
        if not isinstance(result, (tuple, np.ndarray)):
            list(result)  # lazy readers fail while iterating
    except EmogenError:
        pass
    finally:
        path.unlink()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_checkpoint(scratch) -> bytes:
    path = scratch / "valid.emc"
    save_checkpoint(path, {"kind": "test", "nested": {"a": [1, 2.5]}},
                    [("w", Parameter(np.arange(6.0).reshape(2, 3))), ("b", Parameter(np.ones(2)))])
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_feature(scratch) -> bytes:
    path = scratch / "valid.emf"
    write_feature_file(path, np.linspace(-1.0, 1.0, IMAGE_FEATURE_DIM))
    return path.read_bytes()


@FUZZ
@given(file=FILES)
@example(file=("raw", OVERFLOW_CHECKPOINT))
@example(file=("raw", checkpoint_bytes(b'{"format_version": 1}', (1,) * 65)))  # > numpy's 64
@example(file=("raw", checkpoint_bytes(b"[" * DEEP + b"]" * DEEP, (1,))))
def test_load_checkpoint(scratch, valid_checkpoint, file):
    raw = _file_bytes(file, valid_checkpoint)
    if file[0] == "raw" and not raw.startswith(CHECKPOINT_MAGIC):
        raw = CHECKPOINT_MAGIC + raw  # get past the magic check
    _only_typed_errors(load_checkpoint, scratch, raw)


@FUZZ
@given(file=FILES)
def test_read_feature_file(scratch, valid_feature, file):
    _only_typed_errors(read_feature_file, scratch, _file_bytes(file, valid_feature))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["id", "ids", "vocab_hash"]) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10)
RECORDS = st.fixed_dictionaries(
    {"id": JSON_VALUES, "ids": JSON_VALUES | st.lists(st.integers() | st.floats(), max_size=5)},
    optional={"vocab_hash": st.just(VOCAB.vocab_hash) | JSON_VALUES})


@FUZZ
@given(lines=st.lists(st.one_of(RECORDS.map(json.dumps), JSON_VALUES.map(json.dumps),
                                st.binary(max_size=20)), min_size=1, max_size=3))
@example(lines=['{"id": "a", "ids": [Infinity]}'])
@example(lines=['{"id": "a", "ids": ' + "[" * DEEP + "]" * DEEP + "}"])
def test_load_token_dataset(scratch, lines):
    raw = b"\n".join(line if isinstance(line, bytes) else line.encode() for line in lines)
    _only_typed_errors(lambda path: load_token_dataset(path, VOCAB), scratch, raw)


CSV_CELLS = st.one_of(st.sampled_from(["1", "9", "5.5", "0", "nan", "inf", "-1", "x", ""]),
                      st.text(alphabet="\"',\r\n\x00ab1.", max_size=6))


@FUZZ
@given(header=st.sampled_from(["id,path,valence,arousal", "id,path,emotion_label",
                               "id,path", "valence,arousal,id,path,extra"]),
       rows=st.lists(st.lists(CSV_CELLS, max_size=5), max_size=4),
       junk=st.binary(max_size=8))
@example(header="id,path,valence,arousal", rows=[["a" * 200_000, "p", "1", "1"]], junk=b"")
def test_load_catalog(scratch, header, rows, junk):
    text = "\n".join([header] + [",".join(row) for row in rows])
    _only_typed_errors(lambda path: load_catalog(path, "image"), scratch, text.encode() + junk)
