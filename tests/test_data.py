import json

import numpy as np
import pytest

from text2vis import data, evaluation, retrieval, textvec
from text2vis.data import (CaptionedImage, FormatError, SynthConfig,
                           generate_synthetic, join_captions_features,
                           load_captions, load_features, save_captions,
                           save_features, split_dataset)


class TestCaptionsFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "captions.json"
        records = [(1, ["a dog", "dog runs", "a b", "c d", "e f"]),
                   (2, ["a cat"] * 5)]
        save_captions(path, records)
        assert load_captions(path) == records

    def test_missing_captions_array(self, tmp_path):
        path = tmp_path / "captions.json"
        path.write_text('[{"id": 1}]', encoding="utf-8")
        with pytest.raises(FormatError, match="element 0.*captions"):
            load_captions(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "captions.json"
        path.write_text('[{"id": 1, "captions": ["a"]}, {"id": 1, "captions": ["b"]}]',
                        encoding="utf-8")
        with pytest.raises(FormatError, match="duplicate image id 1"):
            load_captions(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "captions.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_captions(path)

    def test_top_level_must_be_array(self, tmp_path):
        path = tmp_path / "captions.json"
        path.write_text('{"id": 1}', encoding="utf-8")
        with pytest.raises(FormatError, match="array"):
            load_captions(path)

    def test_empty_captions_rejected(self, tmp_path):
        path = tmp_path / "captions.json"
        path.write_text('[{"id": 1, "captions": []}]', encoding="utf-8")
        with pytest.raises(FormatError, match="non-empty"):
            load_captions(path)


class TestFeaturesFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(3, 4096)).astype(np.float32)
        path = tmp_path / "f.t2vf"
        save_features(path, [10, 20, 30], matrix)
        ids, loaded = load_features(path)
        assert ids == [10, 20, 30]
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, matrix)

    def test_wrong_magic_names_expected(self, tmp_path):
        path = tmp_path / "f.t2vf"
        path.write_bytes(b"XXXX" + b"\0" * 40)
        with pytest.raises(FormatError, match="T2VF"):
            load_features(path)

    def test_empty_matrix_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            save_features(tmp_path / "f.t2vf", [], np.zeros((0, 4)))

    def test_zero_dims_rejected_on_load(self, tmp_path):
        path = tmp_path / "f.t2vf"
        import struct
        path.write_bytes(struct.pack("<4sIQQ", b"T2VF", 1, 0, 4))
        with pytest.raises(FormatError, match="empty"):
            load_features(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "f.t2vf"
        save_features(path, [1, 2], np.ones((2, 8), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_features(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "f.t2vf"
        save_features(path, [1, 2], np.ones((2, 8), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_features(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            save_features(tmp_path / "f.t2vf", [1, 1], np.ones((2, 4)))

    def test_id_range_checked(self, tmp_path):
        with pytest.raises(ValueError, match="64-bit"):
            save_features(tmp_path / "f.t2vf", [-1], np.ones((1, 4)))
        with pytest.raises(ValueError, match="signed 64-bit"):
            save_features(tmp_path / "f.t2vf", [3, 2**63], np.ones((2, 4)))
        assert not (tmp_path / "f.t2vf").exists()

    def test_largest_id_round_trips_and_indexes(self, tmp_path):
        path = tmp_path / "f.t2vf"
        top = 2**63 - 1
        save_features(path, [top, 0], np.eye(2, 4, dtype=np.float32))
        ids, matrix = load_features(path)
        assert ids == [top, 0]
        index = retrieval.build_index(ids, matrix)
        assert retrieval.query(index, np.array([1.0, 0, 0, 0]), 2).ids() == [top, 0]

    def test_id_beyond_int64_rejected_at_load(self, tmp_path):
        path = tmp_path / "f.t2vf"
        data.FEATURE_FORMAT.write(path, (2, 4), [("u8", [2**63, 1]), ("f4", np.ones((2, 4)))])
        with pytest.raises(FormatError, match="signed 64-bit") as exc:
            load_features(path)
        assert str(exc.value).startswith(f"{path}: image id {2**63} ")


class TestJoin:
    def test_pairs_by_id(self):
        matrix = np.arange(8, dtype=np.float32).reshape(2, 4)
        images = join_captions_features([(5, ["a"]), (9, ["b"])], [9, 5], matrix)
        assert images[0].image_id == 5
        assert np.array_equal(images[0].feature, matrix[1])

    def test_missing_feature(self):
        with pytest.raises(FormatError, match="no feature"):
            join_captions_features([(5, ["a"])], [9], np.ones((1, 4), dtype=np.float32))


def make_images(n, dim=4):
    rng = np.random.default_rng(0)
    return [CaptionedImage(i, ["caption"], rng.uniform(0.1, 1, dim).astype(np.float32))
            for i in range(n)]


class TestSplitDataset:
    def test_sizes(self):
        split = split_dataset(make_images(100), (0.8, 0.1, 0.1), seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (80, 10, 10)

    def test_same_seed_identical(self):
        images = make_images(50)
        a = split_dataset(images, (0.6, 0.2, 0.2), seed=3)
        b = split_dataset(images, (0.6, 0.2, 0.2), seed=3)
        assert [i.image_id for i in a.train] == [i.image_id for i in b.train]
        assert [i.image_id for i in a.test] == [i.image_id for i in b.test]

    def test_partition_is_exact(self):
        images = make_images(37)
        split = split_dataset(images, (0.5, 0.25, 0.25), seed=1)
        ids = ([i.image_id for i in split.train] + [i.image_id for i in split.validation]
               + [i.image_id for i in split.test])
        assert sorted(ids) == list(range(37))

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="sum to 1"):
            split_dataset(make_images(10), (0.5, 0.2, 0.2), seed=0)


class TestGenerateSynthetic:
    def test_degenerate_single_topic_no_noise(self):
        cfg = SynthConfig(num_topics=3, vocab_size=30, visual_dim=12, num_images=30,
                          topics_per_image=(1, 1), noise_sigma=0.0, seed=4)
        images, truth = generate_synthetic(cfg)
        by_topic = {}
        for img in images:
            by_topic.setdefault(truth.topics_by_image[img.image_id], []).append(img)
        for group in by_topic.values():
            for img in group[1:]:
                assert np.array_equal(img.feature, group[0].feature)

    def test_shared_topics_are_closer(self):
        cfg = SynthConfig(num_topics=4, vocab_size=40, visual_dim=16, num_images=200,
                          topics_per_image=(2, 2), noise_sigma=0.05, seed=5)
        images, truth = generate_synthetic(cfg)
        feats = {img.image_id: img.feature.astype(np.float64) for img in images}
        topics = truth.topics_by_image
        same, none = [], []
        ids = list(feats)
        for a in ids[:60]:
            for b in ids[60:120]:
                shared = set(topics[a]) & set(topics[b])
                d = np.linalg.norm(feats[a] - feats[b])
                if set(topics[a]) == set(topics[b]):
                    same.append(d)
                elif not shared:
                    none.append(d)
        assert same and none
        assert max(same) < min(none)

    def test_fixed_seed_identical(self):
        cfg = SynthConfig(num_images=25, seed=7)
        a, _ = generate_synthetic(cfg)
        b, _ = generate_synthetic(cfg)
        assert all(x.captions == y.captions and np.array_equal(x.feature, y.feature)
                   for x, y in zip(a, b))

    def test_counts_and_ground_truth(self):
        cfg = SynthConfig(num_images=40, captions_per_image=5, seed=0)
        images, truth = generate_synthetic(cfg)
        assert len(images) == 40
        assert all(len(img.captions) == 5 for img in images)
        assert set(truth.topics_by_image) == {img.image_id for img in images}
        assert truth.prototypes.shape == (cfg.num_topics, cfg.visual_dim)
        assert (truth.prototypes >= 0).all()
        for topics in truth.topics_by_image.values():
            assert 1 <= len(topics) <= 3

    def test_captions_use_topic_words(self):
        cfg = SynthConfig(num_images=30, topics_per_image=(1, 1), seed=2)
        images, truth = generate_synthetic(cfg)
        for img in images[:10]:
            topic = truth.topics_by_image[img.image_id][0]
            own = set(truth.topic_words[topic])
            caption_words = set(" ".join(img.captions).split())
            assert len(caption_words & own) / len(caption_words) > 0.5

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(topics_per_image=(3, 1)))
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(noise_sigma=-1))
        with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
            generate_synthetic(SynthConfig(noise_sigma=float("nan")))
        for sigma in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="noise_sigma must be finite"):
                generate_synthetic(SynthConfig(noise_sigma=sigma))
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(vocab_size=10**6))


class TestDefaultConfigProperties:
    def test_within_topic_distance_margin(self, synth_default):
        images, truth = synth_default
        sigma = SynthConfig().noise_sigma
        groups = {}
        for img in images:
            groups.setdefault(truth.topics_by_image[img.image_id], []).append(img)
        rng = np.random.default_rng(0)
        within, across = [], []
        keys = [k for k, v in groups.items() if len(v) >= 2]
        for _ in range(2000):
            k = keys[int(rng.integers(len(keys)))]
            i, j = rng.choice(len(groups[k]), 2, replace=False)
            within.append(np.linalg.norm(
                groups[k][i].feature.astype(float) - groups[k][j].feature.astype(float)))
            disjoint = [k2 for k2 in keys if not (set(k2) & set(k))]
            k2 = disjoint[int(rng.integers(len(disjoint)))]
            other = groups[k2][int(rng.integers(len(groups[k2])))]
            across.append(np.linalg.norm(
                groups[k][i].feature.astype(float) - other.feature.astype(float)))
        assert np.mean(across) - np.mean(within) >= 3 * sigma

    def test_same_topic_rouge_exceeds_cross_topic(self, synth_default):
        # expected ROUGE-L per image pair, estimated over all caption pairs
        images, truth = synth_default
        toks = {img.image_id: [tuple(textvec.tokenize(c)) for c in img.captions]
                for img in images}
        by_id = {img.image_id: img for img in images}
        ids = list(by_id)
        rng = np.random.default_rng(1)

        def pair_score(a, b):
            return np.mean([evaluation.rouge_l(x, y)
                            for x in toks[a] for y in toks[b]])

        ordered = trials = 0
        while trials < 300:
            a = ids[int(rng.integers(len(ids)))]
            sa = set(truth.topics_by_image[a])
            same = [i for i in ids if i != a and set(truth.topics_by_image[i]) == sa]
            cross = [i for i in ids if not (set(truth.topics_by_image[i]) & sa)]
            if not same or not cross:
                continue
            b = same[int(rng.integers(len(same)))]
            c = cross[int(rng.integers(len(cross)))]
            ordered += pair_score(a, b) > pair_score(a, c)
            trials += 1
        assert ordered / trials >= 0.95


class TestFeatureLoadHoldsOneCopy:
    def test_matrix_is_a_writable_view_of_the_file_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(5, 7)).astype(np.float32)
        path = tmp_path / "f.t2vf"
        save_features(path, [3, 1, 4, 15, 9], matrix)
        ids, loaded = load_features(path)
        assert ids == [3, 1, 4, 15, 9]
        assert loaded.dtype == np.float32 and loaded.flags.writeable
        assert loaded.flags.c_contiguous and not loaded.flags.owndata
        assert loaded.tobytes() == path.read_bytes()[24 + 8 * 5:]
        loaded[0, 0] = 2.5
        assert loaded[0, 0] == 2.5

    @pytest.mark.parametrize("case", ["header", "magic", "version", "truncated", "trailing",
                                      "empty", "duplicate"])
    def test_format_error_messages(self, tmp_path, case):
        import struct
        path = tmp_path / "f.t2vf"
        save_features(path, [1, 2], np.ones((2, 3), dtype=np.float32))
        good = path.read_bytes()  # 24 header + 16 ids + 24 floats = 64 bytes
        blob, message = {
            "header": (good[:10], "truncated header"),
            "magic": (b"T2VX" + good[4:], "bad magic b'T2VX', expected T2VF"),
            "version": (good[:4] + struct.pack("<I", 2) + good[8:], "unsupported version 2"),
            "truncated": (good[:-1], "truncated, size mismatch: 63 bytes, expected 64"),
            "trailing": (good + b"x", "trailing data, size mismatch: 65 bytes, expected 64"),
            "empty": (struct.pack("<4sIQQ", b"T2VF", 1, 0, 3), "empty array ids of shape (0,)"),
            "duplicate": (good[:24] + struct.pack("<QQ", 7, 7) + good[40:],
                          "duplicate image ids"),
        }[case]
        path.write_bytes(blob)
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert str(err.value) == f"{path}: {message}"

    def test_file_that_shrinks_while_read_fails_the_length_check(self, tmp_path, monkeypatch):
        import os
        path = tmp_path / "f.t2vf"
        save_features(path, [1, 2], np.ones((2, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:60])
        real_fstat = os.fstat
        # the size taken before reading is the whole file's, 64 bytes; only 60 remain
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            [*real_fstat(fd)[:6], 64, *real_fstat(fd)[7:]]))
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert str(err.value) == f"{path}: truncated, size mismatch: 60 bytes, expected 64"
