"""Exact nearest-neighbor search by Euclidean distance over l2-normalized vectors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RankEntry:
    image_id: int
    distance: float


@dataclass
class RankedList:
    """Retrieval result: entries in non-decreasing distance, ties by ascending id."""

    entries: list[RankEntry]

    def ids(self) -> list[int]:
        return [e.image_id for e in self.entries]

    def distances(self) -> list[float]:
        return [e.distance for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||; rejects zero and non-finite vectors."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("cannot normalize a non-finite vector")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


# Float64 elements per block of build_index's walk over the rows: 512 KB, so a
# block stays in the CPU cache between its conversion, its norms and its division.
_BUILD_BLOCK = 1 << 16

# Norms whose squares neither underflow nor overflow in float64, so dividing by
# one leaves a vector whose squared norm is 1 to within (dim + 4) roundings.
_SAFE_NORMS = (2.0**-480, 2.0**480)

_UNIT_ROUNDOFF = 2.0**-53


@dataclass
class VisualIndex:
    ids: np.ndarray = field(repr=False)      # [N] int64
    vectors: np.ndarray = field(repr=False)  # [N x dim] float64, rows unit-norm
    # Every row was normalized from a norm in _SAFE_NORMS, which query's
    # shortlist bound assumes; without it query scores every candidate.
    safe_norms: bool = False

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def build_index(ids, vectors) -> VisualIndex:
    """Normalize the rows and freeze them into a searchable index.

    The rows are converted to float64 and divided by their norms block by
    block, straight into the index, so no other array the size of the
    collection is made.  Each row is bitwise that of the whole-matrix
    expression `mat / np.linalg.norm(mat, axis=1)[:, None]`.  A zero row or
    one holding a non-finite value is rejected, naming its image id.
    """
    id_arr = np.asarray(list(ids), dtype=np.int64)
    mat = np.asarray(vectors)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError("index needs a non-empty 2-d collection of vectors")
    if len(id_arr) != mat.shape[0]:
        raise ValueError(f"{len(id_arr)} ids for {mat.shape[0]} vectors")
    if len(np.unique(id_arr)) != len(id_arr):
        raise ValueError("duplicate image ids")
    unit = np.empty(mat.shape, dtype=np.float64)
    rows = max(1, _BUILD_BLOCK // max(1, mat.shape[1]))
    safe = True
    for start in range(0, len(unit), rows):
        block = unit[start:start + rows]
        block[...] = mat[start:start + rows]
        norms = np.linalg.norm(block, axis=1)
        safe &= bool(((norms >= _SAFE_NORMS[0]) & (norms <= _SAFE_NORMS[1])).all())
        if not safe:  # a zero, nan or infinite norm is outside the safe range too
            nonfinite = ~np.isfinite(block).all(axis=1)  # a finite row's norm can overflow
            for bad, what in ((norms == 0, "zero"), (nonfinite, "non-finite")):
                if bad.any():
                    raise ValueError(f"{what} vector for image id {id_arr[start + bad.argmax()]}")
        block /= norms[:, None]
    return VisualIndex(ids=id_arr, vectors=unit, safe_norms=safe)


def query(index: VisualIndex, q: np.ndarray, k: int,
          exclude_id: int | None = None) -> RankedList:
    """Top-k ids by exact Euclidean distance to the normalized query.

    Ties are broken by ascending image id; exclude_id, when given, is removed
    from the candidates before ranking.

    The distances are those of the formula `sqrt(((v - qn)**2).sum())` over
    every row v, and so is the order, but the formula runs on a shortlist.
    One matrix-vector product gives each candidate's similarity v . qn; the
    shortlist keeps every candidate within m = 8 (D + 4) u of the k-th
    largest, D the dim and u = 2^-53 (3.6e-12 at D = 4096).

    Why that is exact, with g(n) = n u / (1 - n u).  A vector normalized from
    a norm in _SAFE_NORMS has squared norm 1 +- g(D + 4).  A computed
    similarity is within e = g(D) (1 + g(D + 4)) of the true v . qn.  The
    formula's squared distance is within a factor 1 +- g(D + 2) of the true
    one, and no squared distance exceeds 4 (1 + g(D + 4)).  Take c among the k
    most similar and i outside the shortlist: their true similarities differ
    by more than m - 2e and their squared norms by at most 2 g(D + 4), so i's
    true squared distance exceeds c's by more than 2m - 4e - 2 g(D + 4).  The
    formula's errors take at most 8 g(D + 2) (1 + g(D + 4)) of that, and the
    final sqrt's rounding can merge two values only within 16 u (1 + g(D + 4)).
    To first order these need m > (7 D + 20) u; m leaves (D + 12) u for the
    second-order terms.  So i's computed distance is strictly above those of k
    others and, whatever its id, i is not among the top k.  An index or query
    normalized from a norm outside _SAFE_NORMS, or k at least the number of
    candidates, takes the formula over every candidate.  An all-zero q has no
    direction: every unit-norm candidate lies at distance 1.0 from it, so all
    of them tie and ascending id decides.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (index.dim,):
        raise ValueError(f"query dim {q.shape} does not match index dim {index.dim}")
    rows = (np.arange(index.size) if exclude_id is None
            else np.flatnonzero(index.ids != exclude_id))
    if not q.any():
        return RankedList(entries=[RankEntry(int(i), 1.0)
                                   for i in np.sort(index.ids[rows])[:k]])
    qn = l2_normalize(q)
    if (k < len(rows) and index.safe_norms
            and _SAFE_NORMS[0] <= np.linalg.norm(q) <= _SAFE_NORMS[1]):
        sims = (index.vectors @ qn)[rows]
        kth = np.partition(sims, len(sims) - k)[len(sims) - k]
        rows = rows[sims >= kth - 8 * (index.dim + 4) * _UNIT_ROUNDOFF]
    ids, vectors = index.ids[rows], index.vectors[rows]
    dists = np.sqrt(((vectors - qn) ** 2).sum(axis=1))
    order = np.lexsort((ids, dists))[:k]
    entries = [RankEntry(int(ids[i]), float(dists[i])) for i in order]
    return RankedList(entries=entries)
