import struct

import numpy as np
import pytest

from text2vis import nn
from text2vis.data import FormatError
from text2vis.nn import (Model, backward_text, backward_visual, forward,
                         init_model, load_checkpoint, mse, param_count, relu,
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
                                @ BowVector(30, tuple(int(i) for i in on)).to_dense()
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


class TestHiddenBatch:
    """hidden_batch multiplies only the active vocabulary rows; the dense
    product is the reference it must match bit for bit."""

    @staticmethod
    def assert_matches_dense(m, inputs):
        pre, hidden = nn.hidden_batch(m, inputs)
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


class TestMse:
    def test_identity(self):
        assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit(self):
        assert mse(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0

    def test_hand_value(self):
        assert mse(np.array([1.0, 2, 3]), np.array([2.0, 4, 6])) == pytest.approx(14 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones(2), np.ones(3))

    def test_empty(self):
        with pytest.raises(ValueError):
            mse(np.array([]), np.array([]))


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


class TestBackward:
    def test_perfect_prediction_zero_gradients(self):
        # zero weights and ReLU-off units: prediction 0 matches target 0 exactly
        m = Model(w_hid=np.zeros((3, 4)), b_hid=np.zeros(3),
                  w_txt=np.zeros((4, 3)), b_txt=np.zeros(4),
                  w_vis=np.zeros((2, 3)), b_vis=np.zeros(2))
        loss_t, grads_t = backward_text(m, BowVector(4, (0,)), BowVector(4, ()))
        loss_v, grads_v = backward_visual(m, BowVector(4, (0,)), np.zeros(2))
        assert loss_t == 0.0 and loss_v == 0.0
        assert all(not g.any() for g in grads_t.values())
        assert all(not g.any() for g in grads_v.values())

    def test_text_gradient_scope(self):
        _, grads = backward_text(toy_model(), BowVector(4, (1,)), BowVector(4, (0, 2)))
        assert sorted(grads) == ["b_hid", "b_txt", "w_hid", "w_txt"]

    def test_visual_gradient_scope(self):
        _, grads = backward_visual(toy_model(), BowVector(4, (1,)), np.ones(2))
        assert sorted(grads) == ["b_hid", "b_vis", "w_hid", "w_vis"]

    def test_text_loss_is_mse_of_forward(self):
        m = toy_model()
        bow, target = BowVector(4, (0, 3)), BowVector(4, (1,))
        loss, _ = backward_text(m, bow, target)
        assert loss == pytest.approx(mse(forward(m, bow).text_recon,
                                         target.to_dense()), abs=1e-12)

    def test_visual_finite_differences(self):
        rng = np.random.default_rng(7)
        m = toy_model(rng, vocab=5, hidden=4, visual=3)
        bow = BowVector(5, (0, 2, 4))
        target = rng.uniform(0, 1, 3)
        _, analytic = backward_visual(m, bow, target)
        numeric = {k: fd_gradient(lambda mm: backward_visual(mm, bow, target)[0], m, k)
                   for k in analytic}
        assert_grads_close(analytic, numeric)

    def test_text_finite_differences(self):
        rng = np.random.default_rng(8)
        m = toy_model(rng, vocab=5, hidden=4, visual=3)
        bow, target = BowVector(5, (1, 3)), BowVector(5, (0, 2))
        _, analytic = backward_text(m, bow, target)
        numeric = {k: fd_gradient(lambda mm: backward_text(mm, bow, target)[0], m, k)
                   for k in analytic}
        assert_grads_close(analytic, numeric)

    def test_gradient_step_decreases_visual_loss(self):
        rng = np.random.default_rng(9)
        for step in (1e-3, 1e-4):
            m = toy_model(rng)
            bow, target = BowVector(4, (0, 1)), rng.uniform(0, 1, 2)
            before, grads = backward_visual(m, bow, target)
            for key, g in grads.items():
                p = m.params()[key]
                p[...] = p - step * g
            after, _ = backward_visual(m, bow, target)
            assert after < before

    def test_requires_text_branch(self):
        with pytest.raises(ValueError, match="text branch"):
            backward_text(toy_model(text_branch=False), BowVector(4, (0,)),
                          BowVector(4, (0,)))

    def test_batch_matches_mean_of_singles(self):
        rng = np.random.default_rng(10)
        m = toy_model(rng, vocab=6, hidden=4, visual=3)
        bows = [BowVector(6, (0, 2)), BowVector(6, (1,)), BowVector(6, (3, 4, 5))]
        targets = rng.uniform(0, 1, (3, 3))
        inputs = np.stack([b.to_dense() for b in bows], axis=1)
        loss_b, grads_b = nn.backward_visual_batch(m, inputs, targets.T)
        singles = [backward_visual(m, b, t) for b, t in zip(bows, targets)]
        assert loss_b == pytest.approx(np.mean([s[0] for s in singles]), abs=1e-12)
        for key in grads_b:
            mean_grad = np.mean([s[1][key] for s in singles], axis=0)
            assert np.abs(grads_b[key] - mean_grad).max() < 1e-12

    def test_joint_with_zero_weight_matches_visual(self):
        rng = np.random.default_rng(12)
        m = toy_model(rng, vocab=6, hidden=4, visual=3)
        inputs = np.stack([BowVector(6, (0, 2)).to_dense(),
                           BowVector(6, (1, 5)).to_dense()], axis=1)
        vis_targets = rng.uniform(0, 1, (3, 2))
        txt_targets = np.zeros((6, 2))
        _, loss_v, grads = nn.backward_joint_batch(m, inputs, txt_targets,
                                                   vis_targets, 0.0)
        loss_ref, grads_ref = nn.backward_visual_batch(m, inputs, vis_targets)
        assert loss_v == loss_ref
        for key in grads_ref:
            assert np.array_equal(grads[key], grads_ref[key])
        assert not grads["w_txt"].any() and not grads["b_txt"].any()


class TestParamCount:
    def test_headline_dimensions(self):
        m = init_model(10_358, 1024, 4096, seed=0)
        # 2*(1024*10358) + 1024 + 10358 + 1024*4096 + 4096
        assert param_count(m) == 25_422_966

    def test_ngram_dimensions(self):
        m = init_model(23_968, 1024, 4096, seed=0)
        assert abs(param_count(m) - 53_300_000) < 100_000

    def test_no_text_branch_hand_count(self):
        m = init_model(3, 2, 2, has_text_branch=False, seed=0)
        assert param_count(m) == 3 * 2 + 2 + 2 * 2 + 2


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

    def test_non_finite_message(self, tmp_path):
        m = init_model(3, 2, 2, seed=0)
        m.w_vis[1, 1] = np.inf
        path = tmp_path / "model.t2vm"
        save_checkpoint(m, path)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: non-finite values in w_vis"
