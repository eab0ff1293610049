"""Exact nearest-neighbor search by Euclidean distance over l2-normalized vectors."""

from __future__ import annotations

import math
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
# block stays in the CPU cache between its conversion and its norms.
_BUILD_BLOCK = 1 << 16

# Norms whose squares neither underflow nor overflow in float64, so dividing by
# one leaves a vector whose squared norm is 1 to within (dim + 4) roundings.
_SAFE_NORMS = (2.0**-480, 2.0**480)

# The dtypes query scans in, each with the norms within which its scan cannot
# overflow and loses at most 4 dim tiny / norm to underflow (tiny the dtype's
# smallest normal number); both ranges lie inside _SAFE_NORMS.  Rows of any
# other dtype are searched as float64.
_SCAN_NORMS = {np.dtype(np.float64): _SAFE_NORMS, np.dtype(np.float32): (2.0**-64, 2.0**64)}

_UNIT_ROUNDOFF = 2.0**-53


@dataclass
class VisualIndex:
    """The collection's rows, shared with the caller, next to their norms.

    The index never writes to the rows, and a write through `rows` raises;
    the caller must not write to them either while the index is in use.
    """

    ids: np.ndarray = field(repr=False)    # [N] int64
    rows: np.ndarray = field(repr=False)   # [N x dim] float32 or float64, read-only view
    norms: np.ndarray = field(repr=False)  # [N] float64, each row's l2 norm
    # Every norm lies in _SCAN_NORMS for the rows' dtype, which query's
    # shortlist bound assumes; without it query scores every candidate.
    safe_norms: bool = False

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def unit_rows(self, sel=slice(None)) -> np.ndarray:
        """The selected rows over their norms, in float64: bitwise the rows of
        `mat / np.linalg.norm(mat, axis=1)[:, None]` with mat the float64 rows."""
        return np.divide(self.rows[sel], self.norms[sel, None], dtype=np.float64)


def build_index(ids, vectors) -> VisualIndex:
    """Index the rows in place: compute their norms, copy none of them.

    Float32 and float64 rows are kept as a read-only view of the caller's
    array; rows of another dtype are converted to float64 once.  The norms
    are computed in float64, a block of rows at a time, so no other array
    the size of the collection is made.  Each norm is bitwise that of
    `np.linalg.norm(mat, axis=1)` over the float64 rows.  A zero row or one
    holding a non-finite value is rejected, naming its image id.
    """
    id_arr = np.asarray(list(ids), dtype=np.int64)
    mat = np.asarray(vectors)
    if mat.dtype not in _SCAN_NORMS:
        mat = mat.astype(np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError("index needs a non-empty 2-d collection of vectors")
    if len(id_arr) != mat.shape[0]:
        raise ValueError(f"{len(id_arr)} ids for {mat.shape[0]} vectors")
    if len(np.unique(id_arr)) != len(id_arr):
        raise ValueError("duplicate image ids")
    rows = mat.view()
    rows.flags.writeable = False
    norms = np.empty(len(mat))
    step = max(1, _BUILD_BLOCK // max(1, mat.shape[1]))
    scratch = np.empty((min(step, len(mat)), mat.shape[1]))
    low, high = _SCAN_NORMS[mat.dtype]
    safe = True
    for start in range(0, len(mat), step):
        block = scratch[:len(mat) - start]
        block[...] = mat[start:start + step]
        block_norms = norms[start:start + step]
        block_norms[...] = np.linalg.norm(block, axis=1)
        safe &= bool(((block_norms >= low) & (block_norms <= high)).all())
        if not safe:  # a zero, nan or infinite norm is outside the safe range too
            nonfinite = ~np.isfinite(block).all(axis=1)  # a finite row's norm can overflow
            for bad, what in ((block_norms == 0, "zero"), (nonfinite, "non-finite")):
                if bad.any():
                    raise ValueError(f"{what} vector for image id {id_arr[start + bad.argmax()]}")
    return VisualIndex(ids=id_arr, rows=rows, norms=norms, safe_norms=safe)


def _g(n: float, u: float) -> float:
    """The bound g(n) = n u / (1 - n u) on the error of n roundings of unit roundoff u."""
    return n * u / (1 - n * u) if n * u < 1 else math.inf


def _scan_margin(dim: int, dtype: np.dtype) -> float:
    """query's shortlist margin m(D, u_t) for rows of this dim and dtype."""
    info = np.finfo(dtype)
    u, u_t, tiny = _UNIT_ROUNDOFF, float(info.eps) / 2, float(info.tiny)
    low = _SCAN_NORMS[dtype][0]
    v = 1 + _g(dim + 4, u)
    q = (1 + u_t) * v + tiny * math.sqrt(dim)
    e1 = (_g(1, u) * v * v + (1 + _g(1, u)) * (u_t * v * v + tiny * math.sqrt(dim) * v)
          + _g(dim, u_t) * (1 + _g(1, u)) * v * q + 4 * dim * tiny / low)
    e = e1 + u * (v * v + e1)
    need = 2 * e + _g(dim + 4, u) + (4 * _g(dim + 2, u) + 8 * u * (1 + _g(dim + 2, u))) * v
    return (need + u * (v * v + e)) / (1 - u) * (1 + 2.0**-40)


def query(index: VisualIndex, q: np.ndarray, k: int,
          exclude_id: int | None = None) -> RankedList:
    """Top-k ids by exact Euclidean distance to the normalized query.

    Ties are broken by ascending image id; exclude_id, when given, is removed
    from the candidates before ranking.

    The distances are those of the formula `sqrt(((v - qn)**2).sum())` over
    every unit row v = index.unit_rows(i), and so is the order, but the
    formula runs on a shortlist.  One matrix-vector product in the rows' own
    dtype t (sgemv for float32 rows), divided by the norms, scores every
    candidate: s = fl(fl_t(x . q_t) / n), with x the row, n its norm and
    q_t = fl_t(qn).  The shortlist keeps every candidate scored within
    m(D, u_t) of the k-th largest score; D is the dim, u = 2^-53 and u_t the
    unit roundoff of t (2^-24 for float32).  m is _scan_margin's value,
    2 (D + 1) u_t + (5 D + 25) u to first order: 4.9e-4 for float32 rows
    and 3.2e-12 for float64 rows at D = 4096.

    Why that is exact, with g(n) = n u / (1 - n u), g_t likewise with u_t,
    and tiny the smallest normal number of t.  A vector normalized from a
    norm in _SAFE_NORMS, as v and qn are, has squared norm 1 +- g(D + 4), so
    norm at most V = 1 + g(D + 4).  The score s is within e of the true
    v . qn, where e = e1 + u (V^2 + e1) and e1 sums four parts:
      - x / n differs from v by at most g(1) |v| per component: g(1) V^2;
      - q_t differs from qn by u_t |qn| + tiny per component:
        (1 + g(1)) (u_t V^2 + tiny sqrt(D) V);
      - the dot product in t, in any order, with or without fused
        multiply-adds, gradual underflow or flushing to zero, is off by at
        most g_t(D) |x| . |q_t| + 4 D tiny; over n that is at most
        g_t(D) (1 + g(1)) V Q + 4 D tiny / L, with Q = (1 + u_t) V +
        tiny sqrt(D) bounding |q_t| and L the least norm of the safe range;
      - and the final u is the division by n, in float64.
    The formula's squared distance is within a factor 1 +- g(D + 2) of the
    true one, and no squared distance exceeds 4 V.  Take c among the k
    best-scored and i outside the shortlist: their scores differ by more than
    m' = m (1 - u) - u (V^2 + e), m less the rounding of `kth - m`, so their
    true similarities by more than m' - 2 e, and their squared norms differ
    by at most 2 g(D + 4); so i's true squared distance exceeds c's by more
    than 2 m' - 4 e - 2 g(D + 4).  The formula's errors take at most
    8 g(D + 2) V of that, and the final sqrt's rounding can merge two values
    only within 16 u V (1 + g(D + 2)).  So m' > 2 e + g(D + 4) +
    (4 g(D + 2) + 8 u (1 + g(D + 2))) V suffices: i's computed distance is
    strictly above those of k others and, whatever its id, i is not among
    the top k.  _scan_margin solves for m and raises it by one part in 2^40,
    which covers the roundings of its own evaluation.

    The safe range: every row norm in _SCAN_NORMS for t, [2^-480, 2^480] for
    float64 and [2^-64, 2^64] for float32 rows, and the query's norm in
    _SAFE_NORMS.  In it no product or partial sum of the scan can overflow
    (|x| . |q_t| stays below 2^66, float32 overflows at 2^128), and a row of
    subnormal values or a norm near 3e38 is outside it; subnormal components
    of a row or of q_t cost at most the tiny terms above.  An index or query
    outside the range, a margin of 1 or more, or k at least the number of
    candidates, takes the formula over every candidate.  An all-zero q has
    no direction: every unit-norm candidate lies at distance 1.0 from it, so
    all of them tie and ascending id decides.
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
    margin = _scan_margin(index.dim, index.rows.dtype)
    if (k < len(rows) and index.safe_norms and margin < 1
            and _SAFE_NORMS[0] <= np.linalg.norm(q) <= _SAFE_NORMS[1]):
        sims = (index.rows @ qn.astype(index.rows.dtype) / index.norms)[rows]
        kth = np.partition(sims, len(sims) - k)[len(sims) - k]
        rows = rows[sims >= kth - margin]
    ids = index.ids[rows]
    diff = index.unit_rows(rows)  # the formula in place: one array, not three
    diff -= qn
    np.square(diff, out=diff)
    dists = np.sqrt(diff.sum(axis=1))
    order = np.lexsort((ids, dists))[:k]
    entries = [RankEntry(int(ids[i]), float(dists[i])) for i in order]
    return RankedList(entries=entries)
