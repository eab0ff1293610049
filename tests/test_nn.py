import math
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import dense_grads
from hypothesis import example, given, settings, strategies as st

from text2vis import nn
from text2vis.data import FormatError
from text2vis.nn import (Model, forward, init_model, load_checkpoint, relu,
                         save_checkpoint)
from text2vis.textvec import BowVector


def toy_model(rng=None, vocab=4, hidden=3, visual=2, text_branch=True,
              dtype=np.float64):
    """Small dense-parameter model for hand checks; float64 by default."""
    rng = rng or np.random.default_rng(0)
    u = lambda *shape: rng.uniform(-0.6, 0.6, size=shape).astype(dtype)
    return Model(
        w_hid=u(hidden, vocab), b_hid=u(hidden),
        w_txt=u(vocab, hidden) if text_branch else None,
        b_txt=u(vocab) if text_branch else None,
        w_vis=u(visual, hidden), b_vis=u(visual))


class TestRelu:
    def test_mixed(self):
        assert relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_zero(self):
        assert relu(np.array([0.0])).tolist() == [0.0]

    def test_all_negative(self):
        assert not relu(-np.ones(5)).any()


class TestInitModel:
    def test_biases_zero(self):
        m = init_model(7, 5, 3, seed=123)
        assert not m.b_hid.any() and not m.b_txt.any() and not m.b_vis.any()

    def test_same_seed_bit_identical(self):
        a = init_model(10, 6, 4, seed=9)
        b = init_model(10, 6, 4, seed=9)
        for k in a.params():
            assert np.array_equal(a.params()[k], b.params()[k])

    def test_different_seeds_differ(self):
        a = init_model(10, 6, 4, seed=1)
        b = init_model(10, 6, 4, seed=2)
        assert not np.array_equal(a.w_hid, b.w_hid)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            init_model(0, 5, 3)

    def test_std_matches_fan_in(self):
        # quick version of the big init-statistics acceptance check
        std = 1.0 / np.sqrt(400)
        m = init_model(400, 500, 4, seed=5)
        observed = m.w_hid.std()
        assert abs(observed - std) / std < 0.05
        bound = 2.0 * std / nn.TRUNC_STD_FACTOR
        assert np.abs(m.w_hid).max() <= bound * (1 + 1e-6)

    def test_no_text_branch(self):
        m = init_model(5, 4, 3, has_text_branch=False, seed=0)
        assert m.w_txt is None and m.b_txt is None and not m.has_text_branch


def reference_truncated_normal(rng, shape, std):
    """The whole-array sampler: every value drawn in float64, then each round
    redraws all rejected positions and re-tests the whole array; cast last."""
    sigma = std / nn.TRUNC_STD_FACTOR
    out = rng.normal(0.0, sigma, size=shape)
    bad = np.abs(out) > 2.0 * sigma
    while bad.any():
        out[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * sigma
    return out.astype(np.float32)


_BLOCK = nn._SAMPLE_BLOCK


class TestTruncatedNormalMatchesWholeArray:
    @settings(max_examples=40, deadline=None)
    @given(shape=st.lists(st.integers(0, 700), min_size=1, max_size=2).map(tuple),
           std=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
    @example(shape=(0,), std=0.5, seed=1)
    @example(shape=(4, 0), std=0.5, seed=1)
    @example(shape=(1, 1), std=0.5, seed=1)
    @example(shape=(_BLOCK - 1,), std=0.5, seed=2)
    @example(shape=(_BLOCK,), std=0.5, seed=3)
    @example(shape=(_BLOCK + 1,), std=0.5, seed=4)
    @example(shape=(3, _BLOCK + 7), std=0.02, seed=5)  # 4 blocks, the last one short
    def test_bitwise_and_same_generator_state(self, shape, std, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = nn.truncated_normal(rng, shape, std)
        want = reference_truncated_normal(ref_rng, shape, std)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_values_at_exactly_two_sampling_deviations_are_kept(self):
        class Scripted:
            """A generator whose normal() returns the next scripted unit values."""

            def __init__(self, units):
                self.units = list(units)

            def normal(self, loc, scale, size):
                n = int(np.prod(size))
                out, self.units = self.units[:n], self.units[n:]
                return loc + scale * np.array(out).reshape(size)

        units = [2.0, -2.0, 3.0, -2.5, 0.25, 5.0, -1.0]
        got = nn.truncated_normal(Scripted(units), (4,), 0.3)
        sigma = 0.3 / nn.TRUNC_STD_FACTOR
        # 3.0 and -2.5 are redrawn as 0.25 and 5.0; then 5.0 as -1.0
        assert got.tolist() == np.float32(sigma * np.array([2.0, -2.0, 0.25, -1.0])).tolist()
        assert got.tobytes() == reference_truncated_normal(Scripted(units), (4,), 0.3).tobytes()

    @pytest.mark.parametrize("seed", [0, 41])
    @pytest.mark.parametrize("has_text_branch", [True, False])
    def test_published_dims_model_equals_reference(self, seed, has_text_branch):
        vocab, hidden, visual = 10_358, 1024, 4096
        model = init_model(vocab, hidden, visual, has_text_branch=has_text_branch, seed=seed)
        rng = np.random.default_rng(seed)
        for name, (rows, cols) in (("w_hid", (hidden, vocab)), ("w_txt", (vocab, hidden)),
                                   ("w_vis", (visual, hidden))):
            if name == "w_txt" and not has_text_branch:
                assert model.w_txt is None
                continue
            want = reference_truncated_normal(rng, (rows, cols), 1.0 / math.sqrt(cols))
            assert getattr(model, name).tobytes() == want.tobytes(), name

    def test_peak_memory_stays_near_the_float32_weights(self):
        # no float64 copy of a weight matrix, and no whole-matrix temporaries
        tracemalloc.start()
        try:
            model = init_model(5000, 256, 64, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = model.w_hid.nbytes + model.w_txt.nbytes + model.w_vis.nbytes
        assert peak <= 1.25 * weights


class TestForward:
    def test_zero_model_zero_output(self):
        m = Model(w_hid=np.zeros((3, 4)), b_hid=np.zeros(3),
                  w_txt=np.zeros((4, 3)), b_txt=np.zeros(4),
                  w_vis=np.zeros((2, 3)), b_vis=np.zeros(2))
        r = forward(m, BowVector(4, (0, 2)))
        assert not r.hidden.any() and not r.text_recon.any() and not r.visual_pred.any()

    def test_hand_computed_two_dim(self):
        m = Model(w_hid=np.array([[1.0, -1.0], [0.5, 0.5]]), b_hid=np.array([0.1, -2.0]),
                  w_txt=np.array([[1.0, 0.0], [0.0, 1.0]]), b_txt=np.array([0.0, 0.5]),
                  w_vis=np.array([[2.0, 1.0]]), b_vis=np.array([-0.5]))
        # x = [1, 0]: pre-hidden = [1.1, -1.5] -> hidden [1.1, 0]
        # text head: [1.1, 0.5]; visual head: [2*1.1 - 0.5] = [1.7]
        r = forward(m, BowVector(2, (0,)))
        np.testing.assert_allclose(r.hidden, [1.1, 0.0], atol=1e-15)
        np.testing.assert_allclose(r.text_recon, [1.1, 0.5], atol=1e-15)
        np.testing.assert_allclose(r.visual_pred, [1.7], atol=1e-15)

    def test_sparse_equals_dense(self):
        rng = np.random.default_rng(3)
        m = toy_model(rng, vocab=30, hidden=8, visual=5, dtype=np.float32)
        for _ in range(20):
            on = tuple(sorted(rng.choice(30, size=rng.integers(1, 10), replace=False)))
            sparse = forward(m, BowVector(30, tuple(int(i) for i in on)))
            dense_hidden = relu(m.w_hid.astype(np.float64)
                                @ nn.bow_matrix([on], 30)[:, 0]
                                + m.b_hid.astype(np.float64))
            assert np.abs(sparse.hidden - dense_hidden).max() < 1e-12

    def test_outputs_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = toy_model(rng)
            r = forward(m, BowVector(4, (0, 3)))
            assert (r.hidden >= 0).all() and (r.text_recon >= 0).all()
            assert (r.visual_pred >= 0).all()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            forward(toy_model(), BowVector(5, (0,)))

    def test_no_text_branch_skips_head(self):
        m = toy_model(text_branch=False)
        assert forward(m, BowVector(4, (1,))).text_recon is None

    def test_visual_branch_shares_arrays_and_drops_text_head(self):
        m = toy_model()
        branch = m.visual_branch()
        assert not branch.has_text_branch and branch.b_txt is None
        assert m.has_text_branch
        for key in ("w_hid", "b_hid", "w_vis", "b_vis"):
            assert getattr(branch, key) is getattr(m, key)
        r, rb = forward(m, BowVector(4, (1, 2))), forward(branch, BowVector(4, (1, 2)))
        assert rb.text_recon is None
        assert rb.visual_pred.tobytes() == r.visual_pred.tobytes()

    @pytest.mark.parametrize("text_branch", [True, False])
    def test_copy_owns_equal_arrays(self, text_branch):
        m = toy_model(text_branch=text_branch)
        c = m.copy()
        assert c.params().keys() == m.params().keys()
        assert c.has_text_branch == text_branch
        for key, arr in m.params().items():
            assert c.params()[key].tobytes() == arr.tobytes()
            assert not np.shares_memory(c.params()[key], arr)


class TestBowMatrix:
    @pytest.mark.parametrize("indices", [tuple, list,
                                         lambda on: np.asarray(on, dtype=np.intp)])
    def test_columns_have_ones_at_their_indices(self, indices):
        got = nn.bow_matrix([indices((1, 3)), indices(()), indices((0,))], 4)
        assert got.dtype == np.float64 and got.shape == (4, 3)
        assert got.T.tolist() == [[0.0, 1.0, 0.0, 1.0], [0.0] * 4, [1.0, 0.0, 0.0, 0.0]]

    def test_bow_vector_column(self):
        dense = nn.bow_matrix([BowVector(4, (1, 3)).on_indices], 4)[:, 0]
        assert dense.tolist() == [0.0, 1.0, 0.0, 1.0]


class TestHiddenBatch:
    """hidden_batch multiplies only the active vocabulary rows; the dense
    product is the reference it must match bit for bit."""

    @staticmethod
    def assert_matches_dense(m, inputs):
        pre, hidden = nn.hidden_batch(m, inputs, nn.active_rows(inputs))
        ref = m.w_hid.astype(np.float64) @ inputs + m.b_hid.astype(np.float64)[:, None]
        assert pre.shape == ref.shape and pre.tobytes() == ref.tobytes()
        assert hidden.tobytes() == relu(ref).tobytes()

    def test_binary_batch_with_out_of_vocabulary_caption(self):
        rng = np.random.default_rng(8)
        m = toy_model(rng, vocab=300, hidden=16, visual=5, dtype=np.float32)
        inputs = (rng.random((300, 7)) < 0.03).astype(np.float64)
        inputs[:, 2] = 0.0
        assert inputs.any(axis=0).sum() == 6
        self.assert_matches_dense(m, inputs)

    def test_all_zero_batch(self):
        m = toy_model(np.random.default_rng(9), vocab=30, hidden=8, dtype=np.float32)
        self.assert_matches_dense(m, np.zeros((30, 4)))

    def test_dense_real_valued_inputs(self):
        rng = np.random.default_rng(10)
        m = toy_model(rng, vocab=40, hidden=8, dtype=np.float32)
        self.assert_matches_dense(m, rng.normal(size=(40, 5)))


def fd_gradient(loss_fn, model, key, h=1e-4):
    """Central finite differences of loss_fn over one parameter array."""
    base = model.params()[key]
    grad = np.zeros_like(base, dtype=np.float64)
    flat = base.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn(model)
        flat[i] = keep - h
        down = loss_fn(model)
        flat[i] = keep
        grad.reshape(-1)[i] = (up - down) / (2 * h)
    return grad


def assert_grads_close(analytic, numeric, tol=1e-4):
    for key, a in analytic.items():
        f = numeric[key]
        scale = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-10)
        rel = np.abs(a - f) / scale
        mask = np.maximum(np.abs(a), np.abs(f)) > 1e-10
        if mask.any():
            assert rel[mask].max() < tol, f"{key}: rel err {rel[mask].max():.2e}"


def one(bow):
    """The input matrix of a batch of one."""
    return nn.bow_matrix([bow.on_indices], bow.dim)


class TestBackward:
    def test_perfect_prediction_zero_gradients(self):
        # zero weights and ReLU-off units: prediction 0 matches target 0 exactly
        m = Model(w_hid=np.zeros((3, 4)), b_hid=np.zeros(3),
                  w_txt=np.zeros((4, 3)), b_txt=np.zeros(4),
                  w_vis=np.zeros((2, 3)), b_vis=np.zeros(2))
        inputs = one(BowVector(4, (0,)))
        loss_t, grads_t = nn.backward_text_batch(m, inputs, one(BowVector(4, ())),
                                                 nn.active_rows(inputs))
        loss_v, grads_v = nn.backward_visual_batch(m, inputs, np.zeros((2, 1)),
                                                   nn.active_rows(inputs))
        assert loss_t == 0.0 and loss_v == 0.0
        assert all(not g.any() for g in grads_t.values())
        assert all(not g.any() for g in grads_v.values())

    def test_text_gradient_scope(self):
        inputs = one(BowVector(4, (1,)))
        _, grads = nn.backward_text_batch(toy_model(), inputs, one(BowVector(4, (0, 2))),
                                          nn.active_rows(inputs))
        assert sorted(grads) == ["b_hid", "b_txt", "w_hid", "w_txt"]

    def test_visual_gradient_scope(self):
        inputs = one(BowVector(4, (1,)))
        _, grads = nn.backward_visual_batch(toy_model(), inputs, np.ones((2, 1)),
                                            nn.active_rows(inputs))
        assert sorted(grads) == ["b_hid", "b_vis", "w_hid", "w_vis"]

    def test_text_loss_is_mse_of_forward(self):
        m = toy_model()
        bow, target = BowVector(4, (0, 3)), BowVector(4, (1,))
        loss, _ = nn.backward_text_batch(m, one(bow), one(target), nn.active_rows(one(bow)))
        text_recon = nn.forward_batch(m, one(bow))[1]
        assert loss == pytest.approx(np.mean((text_recon - one(target)) ** 2), abs=1e-12)

    def test_visual_finite_differences(self):
        rng = np.random.default_rng(7)
        m = toy_model(rng, vocab=5, hidden=4, visual=3)
        inputs = one(BowVector(5, (0, 2, 4)))
        target = rng.uniform(0, 1, (3, 1))
        active = nn.active_rows(inputs)
        analytic = dense_grads(nn.backward_visual_batch(m, inputs, target, active)[1], inputs)
        numeric = {k: fd_gradient(
                       lambda mm: nn.backward_visual_batch(mm, inputs, target, active)[0], m, k)
                   for k in analytic}
        assert_grads_close(analytic, numeric)

    def test_text_finite_differences(self):
        rng = np.random.default_rng(8)
        m = toy_model(rng, vocab=5, hidden=4, visual=3)
        inputs, target = one(BowVector(5, (1, 3))), one(BowVector(5, (0, 2)))
        active = nn.active_rows(inputs)
        analytic = dense_grads(nn.backward_text_batch(m, inputs, target, active)[1], inputs)
        numeric = {k: fd_gradient(
                       lambda mm: nn.backward_text_batch(mm, inputs, target, active)[0], m, k)
                   for k in analytic}
        assert_grads_close(analytic, numeric)

    def test_gradient_step_decreases_visual_loss(self):
        rng = np.random.default_rng(9)
        for step in (1e-3, 1e-4):
            m = toy_model(rng)
            inputs, target = one(BowVector(4, (0, 1))), rng.uniform(0, 1, (2, 1))
            before, grads = nn.backward_visual_batch(m, inputs, target, nn.active_rows(inputs))
            for key, g in dense_grads(grads, inputs).items():
                p = m.params()[key]
                p[...] = p - step * g
            after, _ = nn.backward_visual_batch(m, inputs, target, nn.active_rows(inputs))
            assert after < before

    def test_batch_matches_mean_of_singles(self):
        rng = np.random.default_rng(10)
        m = toy_model(rng, vocab=6, hidden=4, visual=3)
        bows = [BowVector(6, (0, 2)), BowVector(6, (1,)), BowVector(6, (3, 4, 5))]
        targets = rng.uniform(0, 1, (3, 3))
        inputs = nn.bow_matrix([b.on_indices for b in bows], 6)
        loss_b, grads_b = nn.backward_visual_batch(m, inputs, targets.T, nn.active_rows(inputs))
        grads_b = dense_grads(grads_b, inputs)
        singles = [nn.backward_visual_batch(m, one(b), t[:, None], nn.active_rows(one(b)))
                   for b, t in zip(bows, targets)]
        assert loss_b == pytest.approx(np.mean([s[0] for s in singles]), abs=1e-12)
        singles_grads = [dense_grads(s[1], one(b)) for s, b in zip(singles, bows)]
        for key in grads_b:
            mean_grad = np.mean([g[key] for g in singles_grads], axis=0)
            assert np.abs(grads_b[key] - mean_grad).max() < 1e-12


def blas_name() -> str:
    """numpy's BLAS, as np.show_config() names it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 prints its config only
        return "this numpy's BLAS (see np.show_config())"
    return f"{blas.get('name')} {blas.get('version', '')}".strip()


def dense_head_backward(model, head, inputs, targets):
    """One head's gradients by the dense formula: the w_hid gradient over every
    vocabulary column, ``delta_hid @ inputs.T``."""
    pre1, hidden = nn.hidden_batch(model, inputs, nn.active_rows(inputs))
    w = getattr(model, f"w_{head}").astype(np.float64)
    pre_out = w @ hidden + getattr(model, f"b_{head}").astype(np.float64)[:, None]
    diff = relu(pre_out) - targets
    delta_out = (2.0 / diff.size) * diff * (pre_out > 0)
    delta_hid = (w.T @ delta_out) * (pre1 > 0)
    return {"w_hid": delta_hid @ inputs.T, "b_hid": delta_hid.sum(axis=1),
            f"w_{head}": delta_out @ hidden.T, f"b_{head}": delta_out.sum(axis=1)}


def dense_joint_backward(model, inputs, text_targets, visual_targets, text_weight):
    """backward_joint_batch's gradients by the dense formula."""
    grads = dense_head_backward(model, "vis", inputs, visual_targets)
    text = dense_head_backward(model, "txt", inputs, text_targets)
    grads["w_hid"] += text_weight * text["w_hid"]
    grads["b_hid"] += text_weight * text["b_hid"]
    grads["w_txt"] = text_weight * text["w_txt"]
    grads["b_txt"] = text_weight * text["b_txt"]
    return grads


def batch_inputs(rng, vocab, batch, pattern):
    """A binary [vocab x batch] input matrix: "random" words, "all" rows
    active, "one" word in every column, or an "empty" caption among random ones."""
    if pattern == "all":
        return np.ones((vocab, batch))
    if pattern == "one":
        return nn.bow_matrix([(int(rng.integers(vocab)),) for _ in range(batch)], vocab)
    inputs = (rng.random((vocab, batch)) < rng.uniform(0.05, 0.5)).astype(np.float64)
    if pattern == "empty":
        inputs[:, rng.integers(batch)] = 0.0
    return inputs


def assert_block_is_dense_columns(got, want, inputs):
    """The block equals the dense gradient's active columns bit for bit, and
    the dense gradient's other columns are all +0."""
    active = nn.active_rows(inputs)
    assert got["w_hid"].shape == (want["w_hid"].shape[0], active.size)
    assert got["w_hid"].tobytes() == want["w_hid"][:, active].tobytes(), (
        f"w_hid block differs from the dense product's columns under {blas_name()}")
    rest = np.delete(want["w_hid"], active, axis=1)
    assert not rest.any() and not np.signbit(rest).any(), (
        f"the dense product's inactive columns are not all +0 under {blas_name()}")
    assert got.keys() == want.keys()
    for key in got.keys() - {"w_hid"}:
        assert got[key].tobytes() == want[key].tobytes(), key


class TestWHidBlock:
    """The w_hid gradient is the block of the batch's active columns, bitwise
    the dense formula's, in each backward pass."""

    @settings(max_examples=30, deadline=None)
    @given(vocab=st.integers(1, 40), hidden=st.integers(1, 8), visual=st.integers(1, 6),
           batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           pattern=st.sampled_from(["random", "all", "one", "empty"]),
           text_weight=st.sampled_from([1.0, 0.5, -0.75]))
    @example(vocab=5, hidden=3, visual=2, batch=4, seed=1, pattern="all", text_weight=1.0)
    @example(vocab=9, hidden=4, visual=3, batch=5, seed=2, pattern="one", text_weight=0.5)
    @example(vocab=7, hidden=3, visual=2, batch=1, seed=3, pattern="empty",
             text_weight=-0.75)
    def test_matches_dense_formula(self, vocab, hidden, visual, batch, seed, pattern,
                                   text_weight):
        rng = np.random.default_rng(seed)
        m = toy_model(rng, vocab=vocab, hidden=hidden, visual=visual, dtype=np.float32)
        inputs = batch_inputs(rng, vocab, batch, pattern)
        text_targets = batch_inputs(rng, vocab, batch, "random")
        visual_targets = rng.uniform(0, 1, (visual, batch))
        self.check_all_passes(m, inputs, text_targets, visual_targets, text_weight)

    @pytest.mark.parametrize("words, empty", [(10, False), (1, False), (10, True)])
    def test_matches_dense_formula_at_a_training_batch(self, words, empty):
        # 100 captions of `words` terms over a vocabulary of 3,000: BLAS blocks
        # these products as it does at the published dims
        rng = np.random.default_rng(17)
        m = init_model(3000, 128, 64, seed=17)
        inputs, text_targets = (
            nn.bow_matrix([rng.choice(3000, n, replace=False) for _ in range(100)], 3000)
            for n in (words, 10))
        if empty:
            inputs[:, 7] = 0.0
        visual_targets = rng.uniform(0, 1, (64, 100))
        self.check_all_passes(m, inputs, text_targets, visual_targets, 0.5)

    @staticmethod
    def check_all_passes(m, inputs, text_targets, visual_targets, text_weight):
        active = nn.active_rows(inputs)
        assert_block_is_dense_columns(
            nn.backward_visual_batch(m, inputs, visual_targets, active)[1],
            dense_head_backward(m, "vis", inputs, visual_targets), inputs)
        assert_block_is_dense_columns(
            nn.backward_text_batch(m, inputs, text_targets, active)[1],
            dense_head_backward(m, "txt", inputs, text_targets), inputs)
        assert_block_is_dense_columns(
            nn.backward_joint_batch(m, inputs, text_targets, visual_targets, text_weight,
                                    active)[2],
            dense_joint_backward(m, inputs, text_targets, visual_targets, text_weight),
            inputs)


class TestParamCount:
    def test_headline_dimensions(self):
        m = init_model(10_358, 1024, 4096, seed=0)
        # 2*(1024*10358) + 1024 + 10358 + 1024*4096 + 4096
        assert sum(p.size for p in m.params().values()) == 25_422_966

    def test_ngram_dimensions(self):
        m = init_model(23_968, 1024, 4096, seed=0)
        assert abs(sum(p.size for p in m.params().values()) - 53_300_000) < 100_000

    def test_no_text_branch_hand_count(self):
        m = init_model(3, 2, 2, has_text_branch=False, seed=0)
        assert sum(p.size for p in m.params().values()) == 3 * 2 + 2 + 2 * 2 + 2


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = init_model(7, 5, 4, seed=42)
        path = tmp_path / "model.t2vm"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        for key in m.params():
            assert np.array_equal(m.params()[key], loaded.params()[key])
        assert loaded.has_text_branch

    def test_visreg_flag(self, tmp_path):
        m = init_model(7, 5, 4, has_text_branch=False, seed=42)
        path = tmp_path / "model.t2vm"
        save_checkpoint(m, path)
        raw = path.read_bytes()
        assert raw[:4] == b"T2VM"
        flags = int.from_bytes(raw[8:12], "little")
        assert flags & 1 == 0
        assert not load_checkpoint(path).has_text_branch

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.t2vm"
        path.write_bytes(b"NOPE" + b"\0" * 60)
        with pytest.raises(ValueError, match="T2VM"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        m = init_model(7, 5, 4, seed=0)
        path = tmp_path / "model.t2vm"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="size mismatch"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        m = init_model(3, 2, 2, seed=0)
        path = tmp_path / "model.t2vm"
        save_checkpoint(m, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(4, 0, 3), (0, 2, 3), (4, 2, 0)])
    def test_zero_dimension_rejected(self, tmp_path, dims):
        # without the text branch, sized exactly as the header says; with hidden 0
        # the arrays are just a 12-byte b_vis, and the model would predict zeros
        vocab, hidden, visual = dims
        floats = hidden * vocab + hidden + visual * hidden + visual
        path = tmp_path / "zero.t2vm"
        path.write_bytes(struct.pack("<4sIIQQQ", b"T2VM", 1, 0, *dims) + bytes(4 * floats))
        with pytest.raises(FormatError, match="empty") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


class TestVisualPredictions:
    """The ranking path: the hidden layer and the visual head alone."""

    @staticmethod
    def bows(rng, vocab, n):
        return [BowVector(vocab, tuple(sorted(int(i) for i in
                                              rng.choice(vocab, int(rng.integers(0, 6)),
                                                         replace=False))))
                for _ in range(n)]

    def test_batch_of_one_is_forward_bitwise(self):
        rng = np.random.default_rng(12)
        for text_branch in (True, False):
            m = toy_model(rng, vocab=50, hidden=16, visual=24, text_branch=text_branch,
                          dtype=np.float32)
            for bow in self.bows(rng, 50, 20):
                got = nn.visual_predictions(m, [bow])
                assert got.shape == (1, 24)
                assert got[0].tobytes() == forward(m, bow).visual_pred.tobytes()

    def test_larger_batches_within_1e12_of_forward(self):
        rng = np.random.default_rng(13)
        m = init_model(200, 64, 96, seed=13)
        bows = self.bows(rng, 200, 37)
        got = nn.visual_predictions(m, bows)
        assert got.shape == (37, 96) and got.flags.c_contiguous
        want = np.stack([forward(m, bow).visual_pred for bow in bows])
        assert np.abs(got - want).max() <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            nn.visual_predictions(toy_model(), [BowVector(4, (1,)), BowVector(5, (0,))])

    def test_runs_no_text_head(self, monkeypatch):
        heads = []
        head = nn._head
        monkeypatch.setattr(nn, "_head", lambda model, name, hidden: (
            heads.append(name), head(model, name, hidden))[1])
        nn.visual_predictions(toy_model(), [BowVector(4, (1,)), BowVector(4, ())])
        assert heads == ["vis"]


class TestCheckpointLoadsOneCopy:
    def test_arrays_are_writable_views_of_the_file_bytes(self, tmp_path):
        m = init_model(9, 5, 4, seed=3)
        path = tmp_path / "model.t2vm"
        save_checkpoint(m, path)
        raw = path.read_bytes()
        loaded = load_checkpoint(path)
        offset = struct.calcsize("<4sIIQQQ")
        for name in ("w_hid", "b_hid", "w_txt", "b_txt", "w_vis", "b_vis"):
            arr = getattr(loaded, name)
            assert arr.dtype == np.float32 and arr.flags.writeable
            assert not arr.flags.owndata  # a view of the one buffer read from the file
            assert arr.tobytes() == raw[offset:offset + arr.nbytes]
            offset += arr.nbytes
        assert offset == len(raw)
        loaded.w_vis[0, 0] = 1.0

    def test_a_write_to_a_loaded_array_never_reaches_the_file(self, tmp_path):
        path = tmp_path / "model.t2vm"
        save_checkpoint(init_model(9, 5, 4, seed=3), path)
        raw = path.read_bytes()
        loaded = load_checkpoint(path)
        w_vis = loaded.w_vis.copy()
        loaded.w_vis[...] = 7.0
        assert path.read_bytes() == raw
        assert np.array_equal(load_checkpoint(path).w_vis, w_vis)

    def test_a_save_over_the_path_leaves_loaded_arrays_unchanged(self, tmp_path):
        path = tmp_path / "model.t2vm"
        save_checkpoint(init_model(9, 5, 4, seed=3), path)
        loaded = load_checkpoint(path)
        before = {name: arr.copy() for name, arr in loaded.params().items()}
        save_checkpoint(init_model(6, 3, 2, has_text_branch=False, seed=4), path)
        for name, arr in loaded.params().items():
            assert np.array_equal(arr, before[name]), name
        assert load_checkpoint(path).vocab_dim == 6

    def test_empty_file_is_a_truncated_header(self, tmp_path):
        path = tmp_path / "model.t2vm"
        path.write_bytes(b"")
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: truncated header"

    def test_non_finite_message(self, tmp_path):
        m = init_model(3, 2, 2, seed=0)
        m.w_vis[1, 1] = np.inf
        path = tmp_path / "model.t2vm"
        save_checkpoint(m, path)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: non-finite values in w_vis"
