"""Fuzzed input files: every reader of outside data may only raise `EmogenError`."""

import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emogen._files import write_atomic
from emogen.errors import EmogenError, NonFiniteError
from emogen.model import (CHECKPOINT_MAGIC, IMAGE_FEATURE_DIM, load_checkpoint,
                          read_feature_file, save_checkpoint, write_feature_file)
from emogen.nn import Module, Parameter
from emogen.pairing import load_catalog

FUZZ = settings(max_examples=150, deadline=None)
DEEP = 100_000  # JSON nesting far past the interpreter's recursion limit


# --- reference: the version-1 writer, which wrote every checkpoint before
# version 2; the reader still reads its files ---

def ref_save_checkpoint_v1(path, meta: dict, named_params) -> None:
    payload = json.dumps(dict(meta, format_version=1), sort_keys=True).encode()
    write_atomic(path, ref_checkpoint_chunks_v1(payload, named_params))


def ref_checkpoint_chunks_v1(payload: bytes, named_params):
    yield CHECKPOINT_MAGIC + struct.pack("<I", len(payload)) + payload
    named = list(named_params)
    yield struct.pack("<I", len(named))
    for name, param in named:
        encoded = name.encode()
        arr = np.ascontiguousarray(param.data, dtype="<f8")
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"block {name} holds NaN or inf values; no checkpoint written")
        yield struct.pack("<H", len(encoded)) + encoded
        yield struct.pack("<B", arr.ndim)
        yield struct.pack(f"<{arr.ndim}I", *arr.shape)
        yield arr.tobytes()


def checkpoint_bytes(meta: bytes, shape: tuple[int, ...], itemsize: int | None = None) -> bytes:
    """A container holding `meta` and one block "w" that claims `shape` but has
    no values; with `itemsize`, its header has version 2's value-size byte."""
    size_byte = b"" if itemsize is None else struct.pack("<B", itemsize)
    return (CHECKPOINT_MAGIC + struct.pack("<I", len(meta)) + meta + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"w" + size_byte + struct.pack("<B", len(shape))
            + struct.pack(f"<{len(shape)}I", *shape))


# (65536,)*4 holds 2**64 values, a count np.prod wraps to 0
OVERFLOW_CHECKPOINT = checkpoint_bytes(b'{"format_version": 1, "kind": "emomodel"}',
                                       (65536,) * 4)
OVERFLOW_CHECKPOINT_V2 = checkpoint_bytes(b'{"format_version": 2, "kind": "emomodel"}',
                                          (65536,) * 4, 4)


class TwoBlocks(Module):
    """The parameters `valid_checkpoints` hold, in float32, so the reader
    checks, casts and assigns every block of a fuzzed copy that keeps them."""

    def __init__(self):
        self.w = Parameter(np.zeros((2, 3), np.float32))
        self.b = Parameter(np.zeros(2, np.float32))


def read_two_blocks(path):
    return load_checkpoint(path, lambda meta: TwoBlocks())


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
def valid_checkpoints(scratch) -> dict[int, bytes]:
    """A valid file of each format version; the version-2 and version-3 files,
    whose blocks share one layout, hold a float32 block and a float64 one."""
    blocks = [("w", Parameter(np.arange(6.0, dtype=np.float32).reshape(2, 3))),
              ("b", Parameter(np.ones(2)))]
    for version, save in ((1, ref_save_checkpoint_v1), (3, save_checkpoint)):
        save(scratch / f"valid{version}.emc", {"kind": "test", "nested": {"a": [1, 2.5]}}, blocks)
    files = {version: (scratch / f"valid{version}.emc").read_bytes() for version in (1, 3)}
    files[2] = files[3].replace(b'"format_version": 3', b'"format_version": 2')
    return files


@pytest.fixture(scope="module")
def valid_feature(scratch) -> bytes:
    path = scratch / "valid.emf"
    write_feature_file(path, np.linspace(-1.0, 1.0, IMAGE_FEATURE_DIM))
    return path.read_bytes()


@FUZZ
@given(file=FILES, version=st.sampled_from([1, 2, 3]))
@example(file=("raw", OVERFLOW_CHECKPOINT), version=1)
@example(file=("raw", OVERFLOW_CHECKPOINT_V2), version=2)
@example(file=("raw", checkpoint_bytes(b'{"format_version": 1}', (1,) * 65)), version=1)  # > 64
@example(file=("raw", checkpoint_bytes(b'{"format_version": 2}', (1,) * 65, 8)), version=2)
@example(file=("raw", checkpoint_bytes(b'{"format_version": 2}', (1,), 3)), version=2)
@example(file=("raw", checkpoint_bytes(b"[" * DEEP + b"]" * DEEP, (1,))), version=1)
def test_load_checkpoint(scratch, valid_checkpoints, file, version):
    """Raw bytes, or a valid file of `version` cut and edited."""
    raw = _file_bytes(file, valid_checkpoints[version])
    if file[0] == "raw" and not raw.startswith(CHECKPOINT_MAGIC):
        raw = CHECKPOINT_MAGIC + raw  # get past the magic check
    _only_typed_errors(read_two_blocks, scratch, raw)


@FUZZ
@given(file=FILES)
def test_read_feature_file(scratch, valid_feature, file):
    _only_typed_errors(read_feature_file, scratch, _file_bytes(file, valid_feature))


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
