import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emogen.errors import (CatalogError, ConfigError, CountMismatch, EmogenError,
                           EmptyCatalog)
from emogen.pairing import (MAX_SIMILARITY, PairManifest, TaggedItem, VaPoint,
                            load_catalog, load_manifest, load_va_dictionary,
                            pair_datasets, save_manifest, similarity, split)

va_values = st.floats(min_value=1.0, max_value=9.0, allow_nan=False)


def _item(item_id, v, a, kind="image"):
    return TaggedItem(id=item_id, kind=kind, va=VaPoint(v, a),
                      payload_path=f"/tmp/{item_id}")


class TestSimilarity:
    def test_hand_example(self):
        assert similarity(VaPoint(5, 5), VaPoint(4, 4)) == pytest.approx(1 / math.sqrt(2))

    def test_identical_points_sentinel(self):
        assert similarity(VaPoint(3, 3), VaPoint(3, 3)) == MAX_SIMILARITY == math.inf

    @given(va_values, va_values, va_values, va_values)
    def test_symmetric(self, v1, a1, v2, a2):
        x, y = VaPoint(v1, a1), VaPoint(v2, a2)
        assert similarity(x, y) == similarity(y, x)

    def test_monotone_in_distance(self):
        anchor = VaPoint(5, 5)
        sims = [similarity(anchor, VaPoint(5 + d, 5)) for d in (0.5, 1, 2, 3.5)]
        assert sims == sorted(sims, reverse=True)


class TestPairing:
    def test_picks_nearest_image_with_reuse(self):
        midis = [_item("m1", 2, 2, "midi"), _item("m2", 2.2, 2.2, "midi"),
                 _item("m3", 8, 8, "midi")]
        images = [_item("i_far", 8.5, 8.5), _item("i_near", 2, 2.1)]
        manifest = pair_datasets(midis, images)
        assert [(p["midi_id"], p["image_id"]) for p in manifest.pairs] == \
            [("m1", "i_near"), ("m2", "i_near"), ("m3", "i_far")]

    def test_tie_breaks_on_lower_image_id(self):
        midis = [_item("m", 5, 5, "midi")]
        images = [_item("i_b", 5, 6), _item("i_a", 5, 4)]
        manifest = pair_datasets(midis, images)
        assert manifest.pairs[0]["image_id"] == "i_a"

    def test_coincident_points_get_sentinel(self):
        manifest = pair_datasets([_item("m", 4, 4, "midi")], [_item("i", 4, 4)])
        assert manifest.pairs[0]["similarity"] == MAX_SIMILARITY

    def test_empty_catalog_raises(self):
        with pytest.raises(EmptyCatalog):
            pair_datasets([], [_item("i", 5, 5)])

    def test_matches_exhaustive_oracle(self):
        py_rng = random.Random(99)
        uniform = lambda: py_rng.uniform(1, 9)
        grid = lambda: py_rng.choice([1.0, 3.0, 5.0, 7.0, 9.0])  # a coarse VA grid: many-way ties
        ties = 0
        for draw in [uniform] * 20 + [grid] * 20:
            midis = [_item(f"m{i:02d}", draw(), draw(), "midi")
                     for i in range(py_rng.randint(1, 12))]
            images = [_item(f"i{i:02d}", draw(), draw()) for i in range(py_rng.randint(1, 12))]
            if draw is grid:  # the tie-break must come from the ids, not the input order
                py_rng.shuffle(images)
            manifest = pair_datasets(midis, images)
            for midi, pair in zip(sorted(midis, key=lambda m: m.id), manifest.pairs):
                best, nearest = None, 0
                for img in sorted(images, key=lambda im: im.id):
                    d2 = ((midi.va.valence - img.va.valence) ** 2
                          + (midi.va.arousal - img.va.arousal) ** 2)
                    if best is None or d2 < best[0]:
                        best, nearest = (d2, img.id), 1
                    elif d2 == best[0]:
                        nearest += 1
                assert pair["image_id"] == best[1]
                ties += nearest > 1
        assert ties >= 20  # the grid catalogs do tie


class TestSplit:
    def _manifest(self, n):
        pairs = [{"midi_id": f"m{i:04d}", "image_id": f"i{i:04d}", "similarity": 1.0}
                 for i in range(n)]
        return PairManifest(pairs=pairs)

    def test_counts_respected(self):
        tagged = split(self._manifest(3000), (2884, 100, 16), seed=4)
        assert tagged.split_counts() == {"train": 2884, "test": 100, "val": 16}

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            split(self._manifest(10), (5, 4, 2), seed=0)

    def test_negative_count_rejected(self):
        # (1, 2, -1) sums to the pair count but would tag one train, one test
        with pytest.raises(CountMismatch, match="split count val must be an int >= 0, got -1"):
            split(self._manifest(2), (1, 2, -1), seed=0)

    @pytest.mark.parametrize("counts", [(True, 1, 0), (1.5, 0.5, 0), (1, "1", 0)])
    def test_counts_that_are_not_ints_rejected(self, counts):
        with pytest.raises(CountMismatch, match="split count (train|test) must be an int >= 0"):
            split(self._manifest(2), counts, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        # `random.Random(-1)` shuffles as `random.Random(1)` does
        with pytest.raises(ConfigError, match="seed must be an int >= 0"):
            split(self._manifest(10), (5, 3, 2), seed=seed)

    def _file_bytes(self, manifest, path):
        save_manifest(manifest, path)
        return path.read_bytes()

    def test_deterministic_under_seed(self, tmp_path):
        a = split(self._manifest(50), (40, 6, 4), seed=7)
        b = split(self._manifest(50), (40, 6, 4), seed=7)
        assert self._file_bytes(a, tmp_path / "a.json") == self._file_bytes(b, tmp_path / "b.json")

    def test_seed_changes_assignment(self, tmp_path):
        a = split(self._manifest(50), (40, 6, 4), seed=7)
        b = split(self._manifest(50), (40, 6, 4), seed=8)
        assert self._file_bytes(a, tmp_path / "a.json") != self._file_bytes(b, tmp_path / "b.json")

    def test_order_preserved(self):
        tagged = split(self._manifest(20), (10, 5, 5), seed=1)
        assert [p["midi_id"] for p in tagged.pairs] == [f"m{i:04d}" for i in range(20)]


class TestFiles:
    def test_manifest_round_trip_with_inf(self, tmp_path):
        manifest = PairManifest(
            pairs=[{"midi_id": "m", "image_id": "i",
                    "similarity": MAX_SIMILARITY, "split": "train"}],
            seed=3, config_hash="abc")
        path = tmp_path / "pairs.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.pairs == manifest.pairs
        assert loaded.seed == 3 and loaded.config_hash == "abc"

    def test_load_manifest_rejects_other_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else", "pairs": []}')
        with pytest.raises(CatalogError):
            load_manifest(path)

    @pytest.mark.parametrize("content", [
        b"not json",
        b'{"format": "emogen-pair-manifest-v1", "pairs": ["\xff"]}',
        b"[1, 2]",
        b'{"format": "emogen-pair-manifest-v1"}',
        b'{"format": "emogen-pair-manifest-v1", "pairs": {"midi_id": "m"}}',
        b'{"format": "emogen-pair-manifest-v1", "pairs": [5]}',
        b'{"format": "emogen-pair-manifest-v1", "pairs": [{"image_id": "i", "similarity": 1}]}',
        b'{"format": "emogen-pair-manifest-v1", "pairs": [{"midi_id": "m", "similarity": 1}]}',
        b'{"format": "emogen-pair-manifest-v1", "pairs": [{"midi_id": "m", "image_id": "i"}]}',
        b'{"format": "emogen-pair-manifest-v1", "pairs": '
        b'[{"midi_id": ["m0"], "image_id": "i", "similarity": 1}]}',
        b'{"format": "emogen-pair-manifest-v1", "pairs": '
        b'[{"midi_id": "m", "image_id": 3, "similarity": 1}]}',
        b"[" * 100_000,
    ], ids=["not-json", "not-utf8", "not-object", "no-pairs", "pairs-not-list",
            "pair-not-object", "no-midi-id", "no-image-id", "no-similarity",
            "midi-id-not-str", "image-id-not-str", "deeply-nested"])
    def test_load_manifest_malformed(self, tmp_path, content):
        path = tmp_path / "pairs.json"
        path.write_bytes(content)
        with pytest.raises(CatalogError, match="pairs.json"):
            load_manifest(path)

    # each was accepted: a pair with a non-string split was left out of every
    # split, a similarity that is not a number >= 0 was carried as it was, and
    # so was a manifest seed that is not an int >= 0
    @pytest.mark.parametrize("field", [{"split": 3}, {"split": None}, {"split": ["train"]},
                                       {"similarity": "x"}, {"similarity": True},
                                       {"similarity": None}, {"similarity": [1]},
                                       {"similarity": float("nan")}, {"similarity": -0.5},
                                       {"similarity": float("-inf")}, {"seed": "x"},
                                       {"seed": True}, {"seed": 1.5}, {"seed": None},
                                       {"seed": -1}],
                             ids=["split-int", "split-null", "split-list", "similarity-str",
                                  "similarity-bool", "similarity-null", "similarity-list",
                                  "similarity-nan", "similarity-negative",
                                  "similarity-minus-inf", "seed-str", "seed-bool",
                                  "seed-float", "seed-null", "seed-negative"])
    def test_load_manifest_bad_field(self, tmp_path, field):
        pair = {"midi_id": "m", "image_id": "i", "similarity": 0.5, "split": "train", **field}
        seed = pair.pop("seed", 0)
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"format": "emogen-pair-manifest-v1", "seed": seed,
                                    "pairs": [pair]}))
        where = "seed" if "seed" in field else "pair 0"
        with pytest.raises(CatalogError, match=f"pairs.json: {where}"):
            load_manifest(path)

    @pytest.mark.parametrize("score", [0, 2.5, "inf", float("inf")])
    def test_load_manifest_similarity_numbers(self, tmp_path, score):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"format": "emogen-pair-manifest-v1", "pairs": [
            {"midi_id": "m", "image_id": "i", "similarity": score}]}))
        assert load_manifest(path).pairs[0]["similarity"] == float(score)

    # each was written, and each but -1 then failed to load
    @pytest.mark.parametrize("seed", [-1, True, 1.5, "x"])
    def test_save_manifest_bad_seed(self, tmp_path, seed):
        with pytest.raises(ConfigError, match="seed must be an int >= 0"):
            save_manifest(PairManifest(seed=seed), tmp_path / "pairs.json")
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_manifest(self, tmp_path):
        path = tmp_path / "pairs.json"
        save_manifest(PairManifest(pairs=[{"midi_id": "m", "image_id": "i",
                                           "similarity": 0.5}]), path)
        before = path.read_bytes()
        unserializable = PairManifest(pairs=[
            {"midi_id": "m", "image_id": "i", "similarity": 0.5},
            {"midi_id": "n", "image_id": "i", "similarity": 0.5, "note": object()}])
        with pytest.raises(TypeError):
            save_manifest(unserializable, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pairs.json"]

    @pytest.mark.parametrize("loader, content", [
        ("catalog", "id,path,valence,arousal\na,x.mid,5,5\nb,y.mid,5\n"),
        ("catalog", "id,path,emotion_label\na,x.png,happy\nb\n"),
        ("dictionary", "label,valence,arousal\nhappy,7,6\nsad,2\n"),
    ], ids=["numeric-catalog", "labeled-catalog", "dictionary"])
    def test_short_row_reports_row(self, tmp_path, loader, content):
        path = tmp_path / "file.csv"
        path.write_text(content)
        with pytest.raises(CatalogError, match="file.csv:3"):
            _load(loader, path)

    @pytest.mark.parametrize("loader, content", [
        ("catalog", b"id,path,valence,arousal\na,x\xff.mid,5,5\n"),
        ("dictionary", b"label,valence,arousal\nh\xe4ppy,7,6\n"),
    ], ids=["catalog", "dictionary"])
    def test_not_utf8(self, tmp_path, loader, content):
        path = tmp_path / "file.csv"
        path.write_bytes(content)
        with pytest.raises(CatalogError, match="file.csv"):
            _load(loader, path)

    def test_va_dictionary(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text("label,valence,arousal\nhappy,7.5,6.0\nsad,2.0,3.0\n")
        mapping = load_va_dictionary(path)
        assert mapping == {"happy": VaPoint(7.5, 6.0), "sad": VaPoint(2.0, 3.0)}

    def test_va_dictionary_out_of_range_reports_row(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text("label,valence,arousal\nhappy,7,6\nwild,5,9.5\n")
        with pytest.raises(CatalogError, match=r"dict.csv:3: arousal 9.5 outside \[1.0, 9.0\]"):
            load_va_dictionary(path)

    def test_va_dictionary_bad_header(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text("name,v,a\nhappy,7,6\n")
        with pytest.raises(CatalogError):
            load_va_dictionary(path)

    def test_catalog_numeric(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("id,path,valence,arousal\na,x.mid,5.0,5.0\nb,y.mid,2.0,8.0\n")
        items = load_catalog(path, "midi")
        assert [it.id for it in items] == ["a", "b"]
        assert items[1].va == VaPoint(2.0, 8.0)

    def test_catalog_labeled(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("id,path,emotion_label\na,x.png,happy\n")
        items = load_catalog(path, "image", {"happy": VaPoint(7.0, 6.0)})
        assert items[0].va == VaPoint(7.0, 6.0)

    def test_catalog_labeled_without_dictionary(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("id,path,emotion_label\na,x.png,happy\n")
        with pytest.raises(CatalogError):
            load_catalog(path, "image")

    def test_catalog_unknown_label(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("id,path,emotion_label\na,x.png,zesty\n")
        with pytest.raises(CatalogError, match="zesty"):
            load_catalog(path, "image", {"happy": VaPoint(7.0, 6.0)})

    def test_catalog_duplicate_id(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("id,path,valence,arousal\na,x.mid,5,5\na,y.mid,2,8\n")
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(path, "midi")

    def test_catalog_out_of_range_reports_row(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("id,path,valence,arousal\na,x.mid,5,5\nb,y.mid,12,5\n")
        with pytest.raises(CatalogError, match=":3"):
            load_catalog(path, "midi")


def _load(loader, path):
    if loader == "dictionary":
        return load_va_dictionary(path)
    return load_catalog(path, "image", {"happy": VaPoint(7.0, 6.0)})


_MANIFEST_BYTES = json.dumps({
    "format": "emogen-pair-manifest-v1", "seed": 1, "config_hash": "abc",
    "pairs": [{"midi_id": "m0", "image_id": "i0", "similarity": "inf", "split": "train"},
              {"midi_id": "m1", "image_id": "i1", "similarity": 0.25, "split": "val"}]},
    indent=1).encode()
_json = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                     lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                     max_leaves=8)
_pair_keys = st.sampled_from(["midi_id", "image_id", "similarity", "split", "x"])
_documents = st.fixed_dictionaries(
    {"format": st.just("emogen-pair-manifest-v1")},
    optional={"pairs": _json | st.lists(_json | st.dictionaries(_pair_keys, _json))})
_mutations = st.lists(st.tuples(st.integers(0, len(_MANIFEST_BYTES) - 1), st.integers(0, 255)),
                      min_size=1, max_size=4)


def _mutated(edits):
    data = bytearray(_MANIFEST_BYTES)
    for pos, value in edits:
        data[pos] = value
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutations.map(_mutated), _documents.map(lambda d: json.dumps(d).encode()),
                 _json.map(lambda d: json.dumps(d).encode())))
def test_load_manifest_raises_only_typed_errors(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "pairs.json"
    path.write_bytes(content)
    try:
        load_manifest(path)
    except EmogenError:
        pass
