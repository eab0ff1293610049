"""Dataset loading, deterministic splits, feature-file persistence, and a
synthetic latent-topic dataset generator for desk-scale experiments.

File formats:
  captions  -- JSON array of {"id": <int>, "captions": [<str>, ...]}
  features  -- BinaryFormat "T2VF", header N u64 and D u64, then N image ids
               as u64, each below 2^63, and the N x D matrix as f32
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .textvec import default_lexicon

# Ids are stored as u64 but indexed as int64 (retrieval.build_index).
_MAX_ID = 2**63 - 1


class FormatError(ValueError):
    """A data file does not match its expected structure."""


@dataclass
class CaptionedImage:
    image_id: int
    captions: list[str]
    feature: np.ndarray

    def __post_init__(self):
        if not self.captions:
            raise ValueError(f"image {self.image_id} has no captions")


@dataclass
class DatasetSplit:
    train: list[CaptionedImage]
    validation: list[CaptionedImage]
    test: list[CaptionedImage]


def load_captions(path) -> list[tuple[int, list[str]]]:
    """Parse a captions JSON file into (image_id, captions) records."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise FormatError(f"{path}: top-level value must be an array")
    records: list[tuple[int, list[str]]] = []
    seen: set[int] = set()
    for i, entry in enumerate(doc):
        where = f"{path}: element {i}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        if "id" not in entry:
            raise FormatError(f"{where}: missing 'id'")
        if "captions" not in entry:
            raise FormatError(f"{where}: missing 'captions' array")
        image_id, captions = entry["id"], entry["captions"]
        if not isinstance(image_id, int) or isinstance(image_id, bool):
            raise FormatError(f"{where}: 'id' must be an integer")
        if image_id in seen:
            raise FormatError(f"{where}: duplicate image id {image_id}")
        if (not isinstance(captions, list) or not captions
                or not all(isinstance(c, str) for c in captions)):
            raise FormatError(f"{where}: 'captions' must be a non-empty list of strings")
        seen.add(image_id)
        records.append((image_id, list(captions)))
    return records


def save_captions(path, records: list[tuple[int, list[str]]]) -> None:
    doc = [{"id": image_id, "captions": captions} for image_id, captions in records]
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """A UTF-8 CSV file: the header row, then the rows."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class BinaryFormat:
    """The binary container that feature files and checkpoints share: the
    4-byte magic, version u32, header fields packed by the struct format
    `header`, then row-major arrays, all little-endian."""

    magic: bytes
    version: int
    header: str

    def write(self, path, fields, arrays) -> None:
        """Write the header `fields`, then each (dtype, array) of `arrays`."""
        with atomic_write(path, "wb") as fh:
            fh.write(struct.pack("<4sI" + self.header, self.magic, self.version, *fields))
            for dtype, arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<" + dtype))  # its buffer, no copy

    def read(self, path, layout) -> dict[str, np.ndarray]:
        """The arrays of a file written by `write`.  `layout(*fields)` maps the
        header fields to {name: (dtype, shape)} of the arrays in file order.
        Every array must be non-empty and the file length exact.

        The file is not copied: it is mapped whole, private and copy-on-write,
        and the arrays come back as writable views of the mapping.  A page is
        read when first touched, and a write to an array copies only its page
        and never reaches the file.  The mapping holds one file descriptor
        until the last array of the load is gone.  A file truncated in place
        while it is mapped ends the process with SIGBUS on the next touch of a
        lost page; `write` replaces a file by rename, which a mapping survives
        with the old contents."""
        head = struct.Struct("<4sI" + self.header)
        with open(path, "rb") as fh:  # an empty file cannot be mapped, nor holds a header
            blob = (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
                    if os.fstat(fh.fileno()).st_size else b"")
        if len(blob) < head.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, *fields = head.unpack_from(blob)
        if magic != self.magic:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {self.magic.decode()}")
        if version != self.version:
            raise FormatError(f"{path}: unsupported version {version}")
        views, end = [], head.size  # (name, dtype, count, shape, offset) of each array
        for name, (dtype, shape) in layout(*fields).items():
            dt, count = np.dtype("<" + dtype), math.prod(shape)
            if count == 0:
                raise FormatError(f"{path}: empty array {name} of shape {shape}")
            views.append((name, dt, count, shape, end))
            end += dt.itemsize * count
        if len(blob) != end:
            problem = "truncated" if len(blob) < end else "trailing data"
            raise FormatError(
                f"{path}: {problem}, size mismatch: {len(blob)} bytes, expected {end}")
        return {name: np.frombuffer(blob, dt, count, at).reshape(shape)
                for name, dt, count, shape, at in views}


FEATURE_FORMAT = BinaryFormat(b"T2VF", 1, "QQ")


def save_features(path, ids, matrix) -> None:
    """Write image ids and their feature matrix; load_features inverts this bit-exactly."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("feature matrix must be a non-empty 2-d array")
    ids = list(ids)
    if len(ids) != matrix.shape[0]:
        raise ValueError(f"{len(ids)} ids for {matrix.shape[0]} feature rows")
    if len(set(ids)) != len(ids):
        raise ValueError("image ids must be unique")
    if any(i < 0 or i > _MAX_ID for i in ids):
        raise ValueError("image ids must be non-negative and fit in a signed 64-bit integer")
    FEATURE_FORMAT.write(path, matrix.shape, [("u8", ids), ("f4", matrix)])


def load_features(path) -> tuple[list[int], np.ndarray]:
    arrays = FEATURE_FORMAT.read(
        path, lambda n, d: {"ids": ("u8", (n,)), "matrix": ("f4", (n, d))})
    id_list = [int(i) for i in arrays["ids"]]
    if max(id_list) > _MAX_ID:
        raise FormatError(f"{path}: image id {max(id_list)} does not fit in a "
                          "signed 64-bit integer")
    if len(set(id_list)) != len(id_list):
        raise FormatError(f"{path}: duplicate image ids")
    return id_list, arrays["matrix"].astype(np.float32, copy=False)


def join_captions_features(caption_records: list[tuple[int, list[str]]],
                           ids: list[int], matrix: np.ndarray) -> list[CaptionedImage]:
    """Pair caption records with feature rows by image id, in caption order."""
    row_by_id = {image_id: i for i, image_id in enumerate(ids)}
    images = []
    for image_id, captions in caption_records:
        row = row_by_id.get(image_id)
        if row is None:
            raise FormatError(f"image {image_id} has captions but no feature vector")
        images.append(CaptionedImage(image_id, captions, matrix[row]))
    return images


def split_dataset(dataset: list[CaptionedImage], fractions: tuple[float, float, float],
                  seed: int) -> DatasetSplit:
    """Seeded shuffle then partition into train/validation/test."""
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError("fractions must be three non-negative numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    cut1 = round(fractions[0] * n)
    cut2 = round((fractions[0] + fractions[1]) * n)
    return DatasetSplit(
        train=[dataset[i] for i in order[:cut1]],
        validation=[dataset[i] for i in order[cut1:cut2]],
        test=[dataset[i] for i in order[cut2:]],
    )


# ---------------------------------------------------------------------------
# Synthetic data: K latent topics, each with its own word subset and a
# non-negative visual prototype on its own block of feature dimensions.
# An image mixes 1-3 topics; its feature is the ReLU'd noisy prototype mean
# and its captions sample words from the topic mixture.
# ---------------------------------------------------------------------------

_TOPIC_WORD_PROB = 0.85  # chance a caption word comes from the topic's own subset


@dataclass
class SynthConfig:
    num_topics: int = 10
    vocab_size: int = 200
    visual_dim: int = 64
    num_images: int = 2000
    captions_per_image: int = 5
    caption_length: tuple[int, int] = (6, 12)
    topics_per_image: tuple[int, int] = (1, 3)
    noise_sigma: float = 0.15
    seed: int = 0

    def validate(self) -> None:
        counts = (self.num_topics, self.vocab_size, self.visual_dim,
                  self.num_images, self.captions_per_image,
                  self.caption_length[0], self.topics_per_image[0])
        if any(c < 1 for c in counts):
            raise ValueError("all counts must be >= 1")
        if self.caption_length[0] > self.caption_length[1]:
            raise ValueError("caption_length range is inverted")
        if self.topics_per_image[0] > self.topics_per_image[1]:
            raise ValueError("topics_per_image range is inverted")
        if self.topics_per_image[1] > self.num_topics:
            raise ValueError("topics_per_image exceeds the number of topics")
        if math.isinf(self.noise_sigma):
            raise ValueError("noise_sigma must be finite")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass
class SynthGroundTruth:
    topics_by_image: dict[int, tuple[int, ...]]
    topic_words: list[list[str]]
    prototypes: np.ndarray  # [num_topics x visual_dim]

    def to_json(self) -> dict:
        return {
            "topics_by_image": {str(k): list(v) for k, v in self.topics_by_image.items()},
            "topic_words": self.topic_words,
            "prototypes": self.prototypes.tolist(),
        }


def _word_pool() -> list[str]:
    """Deterministic pool of content words drawn from the bundled lexicon."""
    lexicon = default_lexicon()
    return sorted(w for w, tag in lexicon.items()
                  if tag in ("NOUN", "VERB", "ADJ", "NUM"))


def generate_synthetic(config: SynthConfig) -> tuple[list[CaptionedImage], SynthGroundTruth]:
    """Generate captioned images with known topic structure.

    Returns the dataset plus the ground truth (per-image topics, per-topic
    word subsets and visual prototypes) so tests can verify that caption
    overlap tracks feature proximity.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)

    pool = _word_pool()
    if config.vocab_size > len(pool):
        raise ValueError(
            f"vocab_size {config.vocab_size} exceeds the built-in word pool "
            f"({len(pool)} words)")
    words = [pool[i] for i in rng.permutation(len(pool))[:config.vocab_size]]
    word_slices = np.array_split(np.arange(config.vocab_size), config.num_topics)
    topic_words = [[words[i] for i in sl] for sl in word_slices]

    dim_blocks = np.array_split(np.arange(config.visual_dim), config.num_topics)
    prototypes = np.zeros((config.num_topics, config.visual_dim))
    for k, block in enumerate(dim_blocks):
        prototypes[k, block] = rng.uniform(0.6, 1.4, size=len(block))

    tmin, tmax = config.topics_per_image
    lmin, lmax = config.caption_length
    images: list[CaptionedImage] = []
    topics_by_image: dict[int, tuple[int, ...]] = {}
    for image_id in range(config.num_images):
        n_topics = int(rng.integers(tmin, tmax + 1))
        topics = tuple(sorted(int(t) for t in
                              rng.choice(config.num_topics, size=n_topics, replace=False)))
        base = prototypes[list(topics)].mean(axis=0)
        feature = np.maximum(base + rng.normal(0.0, config.noise_sigma,
                                               size=config.visual_dim), 0.0)
        while not feature.any():  # all-zero features are invalid downstream
            feature = np.maximum(base + rng.normal(0.0, config.noise_sigma,
                                                   size=config.visual_dim), 0.0)

        captions = []
        for _ in range(config.captions_per_image):
            length = int(rng.integers(lmin, lmax + 1))
            chosen = []
            for _ in range(length):
                topic = topics[int(rng.integers(0, n_topics))]
                if rng.random() < _TOPIC_WORD_PROB:
                    sl = word_slices[topic]
                    chosen.append(words[int(sl[int(rng.integers(0, len(sl)))])])
                else:
                    chosen.append(words[int(rng.integers(0, config.vocab_size))])
            captions.append(" ".join(chosen))

        images.append(CaptionedImage(image_id, captions, feature.astype(np.float32)))
        topics_by_image[image_id] = topics

    truth = SynthGroundTruth(topics_by_image=topics_by_image,
                             topic_words=topic_words, prototypes=prototypes)
    return images, truth
