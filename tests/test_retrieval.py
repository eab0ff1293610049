import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from text2vis import retrieval
from text2vis.retrieval import VisualIndex, build_index, l2_normalize, query


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_idempotent_on_unit(self):
        v = l2_normalize(np.array([1.0, 2.0, 2.0]))
        assert np.abs(l2_normalize(v) - v).max() < 1e-12

    def test_axis_vector(self):
        np.testing.assert_allclose(l2_normalize(np.array([2.0, 0.0, 0.0])), [1, 0, 0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            l2_normalize(np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            l2_normalize(np.array([1.0, np.nan]))


class TestBuildIndex:
    def test_rows_unit_norm(self):
        idx = build_index([1, 2, 3], np.array([[3.0, 4], [1, 0], [5, 12]]))
        assert idx.size == 3
        np.testing.assert_allclose(np.linalg.norm(idx.unit_rows(), axis=1), 1.0)

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index([1, 1], np.ones((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_index([], np.zeros((0, 3)))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector for image id 7"):
            build_index([5, 7], np.array([[1.0, 0], [0, 0]]))

    def test_id_count_mismatch(self):
        with pytest.raises(ValueError):
            build_index([1], np.ones((2, 3)))


def random_index(rng, n=50, dim=8):
    ids = rng.permutation(n * 3)[:n]
    return build_index(ids, rng.normal(size=(n, dim)))


class TestQuery:
    def test_self_match_first(self):
        vectors = np.array([[1.0, 0], [0, 1], [1, 1]])
        idx = build_index([10, 20, 30], vectors)
        result = query(idx, np.array([0.0, 2.0]), k=3)
        assert result.ids()[0] == 20
        assert result.distances()[0] == 0.0

    def test_exclusion(self):
        idx = build_index([10, 20], np.array([[1.0, 0], [0, 1]]))
        result = query(idx, np.array([1.0, 0.0]), k=2, exclude_id=10)
        assert result.ids() == [20]

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        idx = random_index(rng)
        for _ in range(20):
            q = rng.normal(size=8)
            got = query(idx, q, k=10)
            qn = q / np.linalg.norm(q)
            oracle = sorted(
                ((float(np.linalg.norm(row - qn)), int(i))
                 for i, row in zip(idx.ids, idx.unit_rows())))
            assert got.ids() == [i for _, i in oracle[:10]]

    def test_full_query_is_permutation(self):
        rng = np.random.default_rng(1)
        idx = random_index(rng)
        result = query(idx, rng.normal(size=8), k=idx.size)
        assert sorted(result.ids()) == sorted(int(i) for i in idx.ids)
        result = query(idx, rng.normal(size=8), k=idx.size, exclude_id=int(idx.ids[0]))
        assert sorted(result.ids()) == sorted(int(i) for i in idx.ids[1:])

    def test_ties_broken_by_ascending_id(self):
        row = np.array([0.6, 0.8])
        idx = build_index([42, 7, 99], np.stack([row, row, row]))
        result = query(idx, np.array([1.0, 0.0]), k=3)
        assert result.ids() == [7, 42, 99]

    def test_distances_nondecreasing(self):
        rng = np.random.default_rng(2)
        idx = random_index(rng)
        d = query(idx, rng.normal(size=8), k=idx.size).distances()
        assert all(a <= b for a, b in zip(d, d[1:]))

    def test_matches_dot_product_order(self):
        rng = np.random.default_rng(3)
        idx = random_index(rng)
        q = rng.normal(size=8)
        by_distance = query(idx, q, k=idx.size).ids()
        qn = q / np.linalg.norm(q)
        sims = idx.unit_rows() @ qn
        by_dot = [int(idx.ids[i]) for i in np.lexsort((idx.ids, -sims))]
        assert by_distance == by_dot

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        idx = random_index(rng)
        q = rng.normal(size=8)
        assert query(idx, q, k=20).ids() == query(idx, q, k=20).ids()

    def test_k_larger_than_collection(self):
        idx = build_index([1, 2], np.array([[1.0, 0], [0, 1]]))
        assert len(query(idx, np.array([1.0, 1.0]), k=10).ids()) == 2

    def test_dim_mismatch(self):
        idx = build_index([1], np.array([[1.0, 0]]))
        with pytest.raises(ValueError, match="dim"):
            query(idx, np.ones(3), k=1)

    @pytest.mark.parametrize("first_row", [[1.0, 0.0], [1e-160, 0.0]])
    def test_zero_query_ties_every_candidate(self, first_row):
        # a row normalized from a norm of 1e-160 leaves the index not safe_norms
        idx = build_index([30, 10, 40, 20], np.array([first_row, [0, 1], [1, 1], [2, 0]]))
        assert idx.safe_norms == (first_row[0] == 1.0)
        for q in (np.zeros(2), np.array([-0.0, 0.0])):
            got = query(idx, q, k=10)
            assert got.ids() == [10, 20, 30, 40] and got.distances() == [1.0] * 4
            got = query(idx, q, k=2, exclude_id=10)
            assert got.ids() == [20, 30] and got.distances() == [1.0, 1.0]
            with pytest.raises(ValueError, match="k must be"):
                query(idx, q, k=0)

    def test_nonfinite_query_rejected(self):
        idx = build_index([1], np.array([[1.0, 0]]))
        for q in ([np.nan, 0.0], [0.0, np.inf]):
            with pytest.raises(ValueError, match="non-finite"):
                query(idx, np.array(q), k=1)

    def test_bad_k(self):
        idx = build_index([1], np.array([[1.0, 0]]))
        with pytest.raises(ValueError, match="k"):
            query(idx, np.ones(2), k=0)


# ---------------------------------------------------------------------------
# Exactness against the whole-matrix index build and the full-sort query,
# kept here as the reference: ids, index vectors and distances must match bit
# for bit, however the rows and the query are shaped.
# ---------------------------------------------------------------------------

def reference_build_index(ids, vectors):
    """(ids, vectors) of the whole-matrix build: one float64 copy, one norm pass."""
    id_arr = np.asarray(list(ids), dtype=np.int64)
    mat = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    return id_arr, mat / norms[:, None]


def reference_query(ids, vectors, q, k, exclude_id=None):
    """(ids, distances) of the full sort over every candidate."""
    qn = l2_normalize(np.asarray(q, dtype=np.float64))
    if exclude_id is not None:
        keep = ids != exclude_id
        ids, vectors = ids[keep], vectors[keep]
    dists = np.sqrt(((vectors - qn) ** 2).sum(axis=1))
    order = np.lexsort((ids, dists))[:k]
    return [int(i) for i in ids[order]], dists[order]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_matches_reference(ids, vectors, queries, ks, excludes):
    index = build_index(ids, vectors)
    ref_ids, ref_vectors = reference_build_index(ids, vectors)
    assert np.array_equal(bits(index.unit_rows()), bits(ref_vectors))
    for q in queries:
        for k in ks:
            for exclude_id in excludes:
                got = query(index, q, k, exclude_id=exclude_id)
                want_ids, want_d = reference_query(ref_ids, ref_vectors, q, k, exclude_id)
                assert got.ids() == want_ids
                assert np.array_equal(bits(got.distances()), bits(want_d))


def near_tie_rows(rng, n, dim, ulps=3, dtype=np.float64):
    """n rows of dtype that are one base row moved by a few ulps of dtype in a
    few components each, plus exact duplicates of some of them: the similarity
    and distance orders disagree among such rows, and float32 rows tie at the
    resolution of a float32 scan."""
    base = np.abs(rng.normal(size=dim)).astype(dtype)
    rows = np.tile(base, (n, 1))
    up, down = dtype(np.inf), dtype(-np.inf)
    for row in rows:
        for j in rng.choice(dim, size=min(dim, 3), replace=False):
            for _ in range(int(rng.integers(1, ulps + 1))):
                row[j] = np.nextafter(row[j], up if rng.random() < 0.5 else down)
    dups = rng.choice(n, size=n // 4, replace=False)
    rows[dups] = rows[rng.choice(n, size=len(dups))]
    return rows


@st.composite
def collections(draw):
    """(ids, rows, queries, ks, excludes, block) over random shapes and row kinds."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dim = draw(st.integers(1, 40))
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["normal", "relu", "near_tie", "duplicates"]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    if kind == "near_tie":
        rows = near_tie_rows(rng, n, dim, dtype=dtype)
    else:
        rows = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10)
        if kind == "relu":
            rows = np.maximum(rows, 0.0)
        if kind == "duplicates":
            rows[rng.integers(0, n, size=n)] = rows[rng.integers(0, n, size=n)]
        rows = rows.astype(dtype)
    rows[~rows.any(axis=1), 0] = 1.0  # a zero row is rejected, not ranked
    ids = rng.permutation(3 * n)[:n]
    queries = [rng.normal(size=dim), np.asarray(rows[int(rng.integers(n))], dtype=np.float64)]
    if kind == "near_tie":  # from well off the cluster, so many candidates nearly tie
        queries.append(rows[0] + rng.normal(size=dim))
    queries = [q if q.any() else np.ones(dim) for q in queries]
    ks = sorted({1, int(rng.integers(1, n + 1)), n, n + 3})
    excludes = [None, int(ids[int(rng.integers(n))]), 10**9]
    block = draw(st.integers(1, 8)) * dim + draw(st.integers(0, dim - 1))
    return ids, rows, queries, ks, excludes, block


class TestExactAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(collections())
    def test_random_collections(self, case):
        ids, rows, queries, ks, excludes, block = case
        with mock.patch.object(retrieval, "_BUILD_BLOCK", block):
            assert_matches_reference(ids, rows, queries, ks, excludes)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(6))
    def test_near_ties_at_the_kth_boundary(self, seed, dtype):
        rng = np.random.default_rng(seed)
        rows = near_tie_rows(rng, 300, 64, dtype=dtype)
        ids = rng.permutation(300)
        queries = [rows[0] + rng.normal(size=64) for _ in range(6)]
        assert build_index(ids, rows).safe_norms
        assert_matches_reference(ids, rows, queries, [1, 5, 17, 50, 299, 300],
                                 [None, int(ids[0]), int(ids[150])])

    def test_block_boundaries_and_dtypes(self):
        rng = np.random.default_rng(7)
        rows = np.maximum(rng.normal(size=(1037, 48)), 0.0)
        rows[~rows.any(axis=1), 0] = 1.0
        for dtype in (np.float32, np.float64):
            for block in (48, 48 * 7 + 5, retrieval._BUILD_BLOCK):
                with mock.patch.object(retrieval, "_BUILD_BLOCK", block):
                    assert_matches_reference(np.arange(1037), rows.astype(dtype),
                                             [rng.normal(size=48)], [10, 1037], [None, 3])

    def test_excluded_best_match_leaves_k_others(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(40, 8))
        assert_matches_reference(np.arange(40), rows, [rows[5], rows[5] + 1e-3], [1, 2, 3],
                                 [5])

    def test_zero_row_reported_from_a_later_block(self):
        rows = np.ones((10, 4))
        rows[7] = 0.0
        with mock.patch.object(retrieval, "_BUILD_BLOCK", 12):  # 3 rows per block
            with pytest.raises(ValueError, match="zero vector for image id 17"):
                build_index(range(10, 20), rows)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nonfinite_row_reported_from_a_later_block(self, value, dtype):
        # such a row would rank last with distance nan and turn the shortlist
        # off for the whole index
        rows = np.ones((10, 4), dtype=dtype)
        rows[7, 2] = value
        with mock.patch.object(retrieval, "_BUILD_BLOCK", 12):  # 3 rows per block
            with pytest.raises(ValueError, match="non-finite vector for image id 17"):
                build_index(range(10, 20), rows)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-160, 1e-152, 1e152, 1e200])
    def test_norms_outside_the_safe_range_score_every_candidate(self, scale):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(50, 16))
        rows[3] *= scale
        index = build_index(range(50), rows)
        assert not index.safe_norms
        assert_matches_reference(range(50), rows, [rng.normal(size=16)], [1, 5], [None, 3])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale", [1e-160, 1e-152, 1e152, 1e160])
    def test_query_norm_outside_the_safe_range(self, scale, dtype):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(50, 16)).astype(dtype)
        assert build_index(range(50), rows).safe_norms
        assert_matches_reference(range(50), rows, [rng.normal(size=16) * scale], [1, 5],
                                 [None, 3])

    @pytest.mark.parametrize("scale", [1e-41, 1e-25, 1e25, 3.4e38])
    def test_float32_norms_outside_the_scan_range_score_every_candidate(self, scale):
        # a row of subnormals, norms beyond 2^-64 and 2^64, and one near the
        # float32 maximum, where a float32 scan would overflow
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(50, 16)).astype(np.float32)
        rows[3] = (rng.uniform(-1, 1, size=16) * scale).astype(np.float32)
        assert rows[3].any() and np.isfinite(rows[3]).all()
        index = build_index(range(50), rows)
        assert not index.safe_norms
        assert_matches_reference(range(50), rows, [rng.normal(size=16), rows[3]], [1, 5],
                                 [None, 3])

    @pytest.mark.parametrize("scale", [1e-18, 1e18])
    def test_float32_norms_inside_the_scan_range(self, scale):
        rng = np.random.default_rng(12)
        rows = (rng.normal(size=(50, 16)) * scale).astype(np.float32)
        assert build_index(range(50), rows).safe_norms
        assert_matches_reference(range(50), rows, [rng.normal(size=16)], [1, 5], [None, 3])

    def test_query_components_subnormal_in_float32(self):
        # such components underflow when the unit query is cast for the scan
        rng = np.random.default_rng(14)
        rows = np.abs(rng.normal(size=(200, 16))).astype(np.float32)
        queries = []
        for tiny in (1e-39, 1e-44, 1e-46):
            q = np.abs(rng.normal(size=16))
            q[rng.choice(16, size=8, replace=False)] = tiny
            queries.append(q)
        assert_matches_reference(range(200), rows, queries, [1, 10, 150], [None, 7])


class TestInPlace:
    def test_float32_rows_are_shared_read_only_and_not_copied(self):
        rng = np.random.default_rng(15)
        n, dim = 4096, 512
        rows = rng.standard_normal((n, dim), dtype=np.float32)
        float64_copy = n * dim * 8
        query(build_index([1, 2], rows[:2]), rows[0], k=1)  # lazy imports, not counted
        tracemalloc.start()
        try:
            index = build_index(np.arange(n), rows)
            with mock.patch.object(VisualIndex, "unit_rows", autospec=True,
                                   side_effect=VisualIndex.unit_rows) as unit_rows:
                got = query(index, rng.standard_normal(dim), k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got.ids()) == 10
        assert np.shares_memory(index.rows, rows) and index.rows.dtype == np.float32
        with pytest.raises(ValueError, match="read-only"):
            index.rows[0, 0] = 1.0
        assert peak < float64_copy / 4
        # the scan's shortlist, not the collection, is normalized in float64
        (_, sel), _ = unit_rows.call_args
        assert 10 <= len(sel) < 100
