import csv
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from text2vis import data, nn, optim, textvec
from text2vis.data import CaptionedImage
from text2vis.optim import (Adam, TrainConfig, TrainHistory, HistoryPoint,
                            TrainingDiverged, aggregated_train, early_stop_check,
                            encode_dataset, pick_captions, sl_train, visreg_train)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        adam = Adam()
        p = {"x": np.array([1.0, -2.0])}
        adam.step(p, {"x": np.zeros(2)})
        assert p["x"].tolist() == [1.0, -2.0]

    def test_first_step_magnitude(self):
        adam = Adam()
        p = {"x": np.array([1.0])}
        adam.step(p, {"x": np.array([1.0])})
        # bias corrections cancel at t=1: update = alpha * 1/(1 + eps)
        assert p["x"][0] == pytest.approx(1.0 - 0.001 / (1 + 1e-8), abs=1e-15)

    def test_two_step_trace(self):
        # independently hand-computed: theta0=0.5, gradients 1.0 then -2.0
        adam = Adam()
        p = {"x": np.array([0.5])}
        adam.step(p, {"x": np.array([1.0])})
        assert p["x"][0] == pytest.approx(0.49900000001, abs=1e-12)
        adam.step(p, {"x": np.array([-2.0])})
        assert p["x"][0] == pytest.approx(0.4993661035347208, abs=1e-12)

    def test_step_count_advances(self):
        adam = Adam()
        for t in range(1, 4):
            adam.step({"x": np.array([0.0])}, {"x": np.array([1.0])})
            assert adam.step_count == t

    def test_bounded_update_on_random_gradients(self):
        rng = np.random.default_rng(0)
        adam = Adam(alpha=0.001)
        p = {"x": np.zeros(16)}
        for _ in range(300):
            before = p["x"].copy()
            adam.step(p, {"x": rng.normal(size=16)})
            assert np.abs(p["x"] - before).max() <= 0.001 * 1.05

    def test_nonfinite_gradient_rejected(self):
        adam = Adam()
        with pytest.raises(ValueError, match="non-finite"):
            adam.step({"x": np.array([1.0])}, {"x": np.array([np.nan])})

    def test_key_mismatch_rejected(self):
        adam = Adam()
        with pytest.raises(ValueError, match="keys"):
            adam.step({"x": np.array([1.0])}, {"y": np.array([1.0])})

    def test_hyper_validation(self):
        with pytest.raises(ValueError):
            Adam(alpha=0.0)
        with pytest.raises(ValueError):
            Adam(alpha=math.nan)
        for value in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="alpha must be finite"):
                Adam(alpha=value)

    def test_float32_params_stay_float32(self):
        adam = Adam()
        p = {"x": np.ones(3, dtype=np.float32)}
        adam.step(p, {"x": np.ones(3)})
        assert p["x"].dtype == np.float32

    def test_non_contiguous_param_rejected(self):
        # reshape(-1) of a transposed view is a copy, so an in-place update
        # of it would be lost.
        adam = Adam()
        base = np.arange(12.0).reshape(3, 4)
        p = {"ok": np.zeros(2), "x": base.T}
        with pytest.raises(ValueError, match="C-contiguous"):
            adam.step(p, {"ok": np.ones(2), "x": np.ones((4, 3))})
        assert base.tolist() == np.arange(12.0).reshape(3, 4).tolist()
        assert p["ok"].tolist() == [0.0, 0.0] and adam.step_count == 0

    def test_gradient_shape_mismatch_rejected(self):
        adam = Adam()
        p = {"ok": np.zeros(2), "x": np.zeros((2, 3))}
        with pytest.raises(ValueError, match="shape"):
            adam.step(p, {"ok": np.ones(2), "x": np.ones(6)})
        assert p["ok"].tolist() == [0.0, 0.0] and adam.step_count == 0

    def test_bitwise_equal_to_textbook_formula(self):
        # Sizes leave a partial last block; gradients are mostly zero, as the
        # w_hid gradient of a bag-of-words batch is.
        size = 3 * optim._ADAM_BLOCK + 7
        rng = np.random.default_rng(5)
        params = {"w32": rng.normal(size=size).astype(np.float32),
                  "w64": rng.normal(size=size)}
        ref = {name: (p.copy(), np.zeros(size), np.zeros(size)) for name, p in params.items()}
        adam = Adam(alpha=0.01)
        for t in range(1, 6):
            grads = {name: rng.normal(size=size) * (rng.random(size) < 0.02)
                     for name in params}
            adam.step(params, grads)
            for name, g in grads.items():
                ref[name] = textbook_adam(*ref[name], g, t, alpha=0.01)
                p_ref, m_ref, v_ref = ref[name]
                assert params[name].dtype == p_ref.dtype
                assert params[name].tobytes() == p_ref.tobytes()
                assert adam._m[name].tobytes() == m_ref.tobytes()
                assert adam._v[name].tobytes() == v_ref.tobytes()


class TestAdamColumnBlock:
    """A gradient given as a block of columns steps the parameter bitwise as
    the textbook formula does on the gradient with +0 in every other column."""

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 60), cols=st.integers(1, 900),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    @example(rows=50, cols=700, dtype=np.float32, seed=1)  # 23-row blocks, the last short
    @example(rows=3, cols=optim._ADAM_BLOCK + 3, dtype=np.float64, seed=2)  # a row per block
    @example(rows=1, cols=1, dtype=np.float32, seed=3)
    def test_bitwise_equal_to_textbook_on_zero_filled_gradient(self, rows, cols, dtype, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(rows, cols)).astype(dtype)
        bias = rng.normal(size=rows).astype(dtype)
        ref = {"p": (p.copy(), np.zeros(p.shape), np.zeros(p.shape)),
               "bias": (bias.copy(), np.zeros(rows), np.zeros(rows))}
        params = {"p": p, "bias": bias}
        adam = Adam(alpha=0.01)
        for t in range(1, 5):
            # an empty set, then random ones; zeros in the block are +0 or -0
            ids = np.flatnonzero(rng.random(cols) < (0.0 if t == 1 else rng.uniform(0.1, 1)))
            block = rng.normal(size=(rows, ids.size)) * (rng.random((rows, ids.size)) < 0.8)
            g_bias = rng.normal(size=rows)
            adam.step(params, {"p": block, "bias": g_bias}, columns={"p": ids})
            dense = np.zeros(p.shape)
            dense[:, ids] = block
            for name, g in (("p", dense), ("bias", g_bias)):
                ref[name] = textbook_adam(*ref[name], g, t, alpha=0.01)
                p_ref, m_ref, v_ref = ref[name]
                assert params[name].dtype == p_ref.dtype
                assert params[name].tobytes() == p_ref.tobytes(), name
                assert adam._m[name].tobytes() == m_ref.tobytes(), name
                assert adam._v[name].tobytes() == v_ref.tobytes(), name
            if t == 2:
                # m*b1 + (1-b1)*(+0) turns a -0 moment into +0, which the walk must keep
                for moment in (adam._m["p"], adam._v["p"]):
                    moment[rng.random(p.shape) < 0.5] = -0.0
                ref["p"] = (ref["p"][0], adam._m["p"].copy(), adam._v["p"].copy())

    @pytest.mark.parametrize("name, ids, match", [
        ("x", [1, 1], "ascend"), ("x", [2, 1], "ascend"), ("x", [0, 4], "ascend"),
        ("x", [-1, 1], "ascend"), ("x", [[0, 1]], "1-D integer"),
        ("x", [0.0, 1.0], "1-D integer"), ("x", [0, 1, 2], "shape"),
        ("ok", [0, 1], "2-D parameter"), ("y", [0, 1], "not stepped")])
    def test_bad_columns_rejected_before_any_step(self, name, ids, match):
        adam = Adam()
        p = {"ok": np.zeros(2), "x": np.zeros((3, 4))}
        with pytest.raises(ValueError, match=match):
            adam.step(p, {"ok": np.ones(2), "x": np.ones((3, 2))}, columns={name: np.array(ids)})
        assert p["ok"].tolist() == [0.0, 0.0] and not p["x"].any() and adam.step_count == 0


def textbook_adam(p, m, v, g, t, alpha=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """One whole-array Adam step: the reference Adam.step must match bit for bit."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    step = alpha * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + epsilon)
    p_new = np.empty_like(p)
    p_new[...] = p.astype(np.float64) - step
    return p_new, m, v


class TestSampleTriple:
    """pick_captions: the input and output captions of a training triple."""

    @staticmethod
    def sample(img, rng):
        in_pick, out_pick = pick_captions(np.array([len(img.captions)]), rng)
        return img.captions[in_pick[0]], img.captions[out_pick[0]]

    def test_single_caption_forced(self):
        img = CaptionedImage(1, ["only"], np.ones(4, dtype=np.float32))
        rng = np.random.default_rng(0)
        for _ in range(10):
            caption_in, caption_out = self.sample(img, rng)
            assert caption_in == caption_out == "only"

    def test_pair_uniformity_chi_square(self):
        img = CaptionedImage(1, [f"c{i}" for i in range(5)], np.ones(2, dtype=np.float32))
        rng = np.random.default_rng(42)
        counts = np.zeros((5, 5))
        draws = 100_000
        for _ in range(draws):
            caption_in, caption_out = self.sample(img, rng)
            counts[int(caption_in[1]), int(caption_out[1])] += 1
        expected = draws / 25
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, df=24) > 0.001

    def test_equal_pair_probability(self):
        img = CaptionedImage(1, [f"c{i}" for i in range(5)], np.ones(2, dtype=np.float32))
        rng = np.random.default_rng(7)
        draws = 100_000
        hits = sum(1 for _ in range(draws)
                   if (pair := self.sample(img, rng))[0] == pair[1])
        assert abs(hits / draws - 0.2) <= 0.2 * 0.02  # within 2% of 1/5

    def test_empty_captions_rejected(self):
        # an image without captions cannot exist, so there is never nothing to pick
        with pytest.raises(ValueError):
            CaptionedImage(1, [], np.ones(2))


def history_from_vals(vals):
    return TrainHistory([HistoryPoint(i * 100, None, v, None, v)
                         for i, v in enumerate(vals)])


class TestEarlyStop:
    def test_plateau_with_patience_three(self):
        h = history_from_vals([5, 4, 3, 3.1, 3.2])
        assert early_stop_check(h, 3) == (False, 200)
        h = history_from_vals([5, 4, 3, 3.1, 3.2, 3.3])
        assert early_stop_check(h, 3) == (True, 200)

    def test_monotone_decrease_never_stops(self):
        h = history_from_vals([5, 4, 3, 2, 1, 0.5])
        stop, best = early_stop_check(h, 1)
        assert not stop and best == 500

    def test_patience_zero_stops_at_first_flat(self):
        assert early_stop_check(history_from_vals([2, 2]), 0) == (True, 0)
        assert early_stop_check(history_from_vals([2]), 0) == (False, 0)

    def test_tie_keeps_earlier_best(self):
        h = history_from_vals([3, 2, 2])
        _, best = early_stop_check(h, 10)
        assert best == 100

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            early_stop_check(TrainHistory(), 1)


class TestTrainConfig:
    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 100
        assert cfg.max_iterations == 300_000
        assert cfg.sl_prob_visual == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(sl_prob_visual=1.5).validate()
        for rate in (0.0, -0.001, float("nan")):
            with pytest.raises(ValueError, match="learning_rate must be > 0"):
                TrainConfig(learning_rate=rate).validate()
        for rate in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="learning_rate must be finite"):
                TrainConfig(learning_rate=rate).validate()
        with pytest.raises(ValueError, match="max_iterations and eval_every must be >= 1"):
            TrainConfig(max_iterations=0, eval_every=500).validate()
        TrainConfig(max_iterations=500, eval_every=500).validate()


@pytest.fixture(scope="module")
def tiny():
    """Small dataset for fast trainer tests."""
    cfg = data.SynthConfig(num_topics=4, vocab_size=60, visual_dim=16,
                           num_images=90, seed=3)
    images, _ = data.generate_synthetic(cfg)
    corpus = (textvec.tokenize(c) for img in images for c in img.captions)
    vocab = textvec.build_vocabulary(corpus, textvec.MODE_UNIGRAM,
                                     min_caption_freq_unigram=2)
    split = data.split_dataset(images, (0.7, 0.3, 0.0), seed=0)
    return (vocab, encode_dataset(split.train, vocab),
            encode_dataset(split.validation, vocab))


def tiny_model(vocab, seed=0, text_branch=True):
    return nn.init_model(len(vocab), hidden_dim=24, visual_dim=16,
                         has_text_branch=text_branch, seed=seed)


def tiny_config(**overrides):
    base = dict(batch_size=16, max_iterations=200, eval_every=50,
                patience=10**9, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def params_equal(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


class TestSlTrain:
    def test_all_visual_never_touches_text_branch(self, tiny):
        vocab, tr, va = tiny
        model = tiny_model(vocab)
        w_txt0, b_txt0 = model.w_txt.copy(), model.b_txt.copy()
        result = sl_train(tr, va, model, tiny_config(sl_prob_visual=1.0))
        assert result.text_steps == 0
        assert result.visual_steps == result.iterations_run
        assert np.array_equal(model.w_txt, w_txt0)
        assert np.array_equal(model.b_txt, b_txt0)

    def test_all_text_never_touches_visual_head(self, tiny):
        vocab, tr, va = tiny
        model = tiny_model(vocab)
        w_vis0 = model.w_vis.copy()
        result = sl_train(tr, va, model, tiny_config(sl_prob_visual=0.0))
        assert result.visual_steps == 0
        assert np.array_equal(model.w_vis, w_vis0)

    def test_branch_frequency_within_three_sigma(self, tiny):
        vocab, tr, va = tiny
        prob = 0.3
        iters = 600
        result = sl_train(tr, va, tiny_model(vocab),
                          tiny_config(max_iterations=iters, sl_prob_visual=prob))
        sigma = math.sqrt(prob * (1 - prob) / iters)
        assert abs(result.visual_steps / iters - prob) <= 3 * sigma

    def test_fixed_seed_reproducible(self, tiny):
        vocab, tr, va = tiny
        r1 = sl_train(tr, va, tiny_model(vocab), tiny_config())
        r2 = sl_train(tr, va, tiny_model(vocab), tiny_config())
        assert r1.history == r2.history
        assert params_equal(r1.model.params(), r2.model.params())

    def test_needs_text_branch(self, tiny):
        vocab, tr, va = tiny
        with pytest.raises(ValueError, match="text branch"):
            sl_train(tr, va, tiny_model(vocab, text_branch=False), tiny_config())

    def test_validation_loss_halves(self, tiny):
        vocab, tr, va = tiny
        result = sl_train(tr, va, tiny_model(vocab),
                          tiny_config(max_iterations=800, eval_every=100))
        init_val = result.history.points[0].val_loss_v
        assert result.best_val_loss_v < 0.5 * init_val

    def test_returned_model_is_best_checkpoint(self, tiny):
        vocab, tr, va = tiny
        result = sl_train(tr, va, tiny_model(vocab), tiny_config(max_iterations=400))
        best = min(p.val_loss_v for p in result.history.points)
        assert result.best_val_loss_v == best
        recomputed = optim._split_losses(result.model, va)[1]
        assert recomputed == pytest.approx(best, rel=1e-12)

    def test_nonfinite_loss_diagnostic(self, tiny):
        vocab, tr, va = tiny
        img = CaptionedImage(0, ["dog runs here"], np.zeros(16, dtype=np.float32))
        bad_set = encode_dataset([img] * 20, vocab)

        def poison(point):  # after the finite point 0; encode_dataset rejects such targets
            bad_set.features[:] = np.inf

        with pytest.raises(TrainingDiverged, match="^visual loss is inf at iteration 1$"):
            sl_train(bad_set, va, tiny_model(vocab), tiny_config(sl_prob_visual=1.0),
                     progress=poison)

    @pytest.mark.parametrize("train_fn", [sl_train, visreg_train])
    def test_nonfinite_eval_point_loss_diverges(self, tiny, train_fn):
        # the one step's loss is finite, but it leaves the weights non-finite
        vocab, tr, va = tiny
        with pytest.raises(TrainingDiverged,
                           match="^train (text|visual) loss is nan at iteration 1$"):
            train_fn(tr, va, tiny_model(vocab), tiny_config(
                max_iterations=1, eval_every=1, learning_rate=1e200))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_validation_feature_rejected(self, tiny, value):
        # a NaN target would make every val_loss_v nan, so training would run
        # its whole budget and return the untrained iteration-0 model
        vocab, _, _ = tiny
        images = [CaptionedImage(i, ["dog runs here"], np.ones(16, dtype=np.float32))
                  for i in range(10, 15)]
        images[3].feature[5] = value
        with pytest.raises(ValueError, match="non-finite feature for image id 13"):
            encode_dataset(images, vocab)


class TestEarlyStopInTraining:
    def test_stops_before_budget_on_plateau(self, tiny):
        vocab, tr, va = tiny
        # past the validation minimum the curve stops improving, so the
        # patience rule fires long before the budget runs out
        result = sl_train(tr, va, tiny_model(vocab),
                          tiny_config(max_iterations=50_000, eval_every=25, patience=3))
        assert result.stopped_early
        assert result.iterations_run < 50_000
        stop, best = early_stop_check(result.history, 3)
        assert stop and best == result.best_iteration


class TestFinalEvalPoint:
    @pytest.mark.parametrize("budget, points", [(250, [0, 100, 200, 250]),
                                                (200, [0, 100, 200]),
                                                (50, [0, 50])])
    def test_budget_end_is_an_eval_point(self, tiny, budget, points):
        vocab, tr, va = tiny
        result = sl_train(tr, va, tiny_model(vocab),
                          tiny_config(max_iterations=budget, eval_every=100))
        assert [p.iteration for p in result.history.points] == points
        assert result.iterations_run == budget
        best = min(p.val_loss_v for p in result.history.points)
        assert optim._split_losses(result.model, va)[1] == pytest.approx(best, rel=1e-12)


def first_strict_minimum(history: TrainHistory) -> HistoryPoint:
    """The earliest point whose val_loss_v no later point beats."""
    best = history.points[0]
    for point in history.points[1:]:
        if point.val_loss_v < best.val_loss_v:
            best = point
    return best


class TestTrainResult:
    """Every TrainResult field against the history it returns."""

    @staticmethod
    def check_against_history(result, va):
        best = first_strict_minimum(result.history)
        assert result.best_iteration == best.iteration
        assert result.best_val_loss_v == best.val_loss_v
        assert optim._split_losses(result.model, va)[1] == pytest.approx(best.val_loss_v,
                                                                        rel=1e-12)
        assert result.iterations_run == result.history.points[-1].iteration
        assert result.visual_steps + result.text_steps == result.iterations_run

    def test_budget_off_its_interval(self, tiny):
        vocab, tr, va = tiny
        result = sl_train(tr, va, tiny_model(vocab),
                          tiny_config(max_iterations=230, eval_every=50))
        assert [p.iteration for p in result.history.points] == [0, 50, 100, 150, 200, 230]
        assert result.iterations_run == 230
        assert not result.stopped_early
        self.check_against_history(result, va)

    def stopping_run(self, tiny, max_iterations):
        vocab, tr, va = tiny
        return sl_train(tr, va, tiny_model(vocab),
                        tiny_config(max_iterations=max_iterations, eval_every=25, patience=2))

    def test_early_stop_before_the_budget(self, tiny):
        result = self.stopping_run(tiny, 3000)
        assert result.stopped_early
        assert result.iterations_run < 3000
        points = result.history.points
        # the stop rule holds at the last point and at no earlier one
        assert [early_stop_check(TrainHistory(points[:n]), 2)[0]
                for n in range(1, len(points) + 1)] == [False] * (len(points) - 1) + [True]
        self.check_against_history(result, tiny[2])

    def test_stop_rule_first_holds_at_the_budget_end(self, tiny):
        stopped = self.stopping_run(tiny, 3000)
        result = self.stopping_run(tiny, stopped.iterations_run)
        assert result.stopped_early
        assert result.iterations_run == stopped.iterations_run
        assert result.history == stopped.history
        self.check_against_history(result, tiny[2])


class TestAggregatedTrain:
    def test_zero_weight_matches_visual_only_trajectory(self, tiny, monkeypatch):
        vocab, tr, va = tiny
        shared_init = tiny_model(vocab, seed=5)
        m_agg = shared_init.copy()
        m_vis = shared_init.copy()
        stepped_keys = []
        adam_step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda adam, params, grads, **kw: (
            stepped_keys.append(sorted(params)), adam_step(adam, params, grads, **kw)))
        monkeypatch.setattr(nn, "backward_joint_batch", None)  # calling it would fail
        r_agg = aggregated_train(tr, va, m_agg, tiny_config(), text_weight=0.0)
        monkeypatch.undo()
        assert stepped_keys and all(keys == ["b_hid", "b_vis", "w_hid", "w_vis"]
                                    for keys in stepped_keys)
        r_vis = visreg_train(tr, va, m_vis, tiny_config())
        for key in ("w_hid", "b_hid", "w_vis", "b_vis"):
            assert np.array_equal(m_agg.params()[key], m_vis.params()[key]), key
            assert np.array_equal(r_agg.model.params()[key], r_vis.model.params()[key])
        # text head untouched under zero weight
        assert np.array_equal(m_agg.w_txt, shared_init.w_txt)

    def test_zero_weight_runs_no_text_head(self, tiny, monkeypatch):
        vocab, tr, va = tiny
        heads = set()
        head = nn._head
        monkeypatch.setattr(nn, "_head", lambda model, name, hidden: (
            heads.add(name), head(model, name, hidden))[1])
        result = aggregated_train(tr, va, tiny_model(vocab), tiny_config(), text_weight=0.0)
        assert len(result.history.points) == 5  # eval points included
        assert heads == {"vis"}
        assert all(p.train_loss_t is None and p.val_loss_t is None
                   for p in result.history.points)

    def test_zero_weight_checkpoint_keeps_initial_text_head(self, tiny):
        vocab, tr, va = tiny
        model = tiny_model(vocab, seed=2)
        init = model.copy()
        result = aggregated_train(tr, va, model, tiny_config(), text_weight=0.0)
        assert result.model.has_text_branch
        assert np.array_equal(result.model.w_txt, init.w_txt)
        assert np.array_equal(result.model.b_txt, init.b_txt)
        assert not np.shares_memory(result.model.w_txt, model.w_txt)
        assert not np.shares_memory(result.model.b_txt, model.b_txt)
        # the caller's visual arrays were trained in place
        assert not np.array_equal(model.w_vis, init.w_vis)

    def test_needs_text_branch(self, tiny):
        vocab, tr, va = tiny
        with pytest.raises(ValueError, match="text branch"):
            aggregated_train(tr, va, tiny_model(vocab, text_branch=False),
                             tiny_config())

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_nonfinite_text_weight_rejected_before_any_step(self, tiny, weight):
        vocab, tr, va = tiny
        model = tiny_model(vocab)
        before = model.copy()
        with pytest.raises(ValueError, match="text_weight must be finite"):
            aggregated_train(tr, va, model, tiny_config(), text_weight=weight)
        assert params_equal(model.params(), before.params())

    def test_reproducible(self, tiny):
        vocab, tr, va = tiny
        r1 = aggregated_train(tr, va, tiny_model(vocab), tiny_config())
        r2 = aggregated_train(tr, va, tiny_model(vocab), tiny_config())
        assert r1.history == r2.history


class TestVisregTrain:
    def test_trains_branchless_model(self, tiny):
        vocab, tr, va = tiny
        model = tiny_model(vocab, text_branch=False)
        result = visreg_train(tr, va, model, tiny_config())
        assert result.history.points[0].train_loss_t is None
        assert result.history.points[0].val_loss_t is None
        assert result.visual_steps == result.iterations_run


VISUAL_ARRAYS = ("b_hid", "b_vis", "w_hid", "w_vis")
TEXT_ARRAYS = ("b_hid", "b_txt", "w_hid", "w_txt")
ALL_ARRAYS = ("b_hid", "b_txt", "b_vis", "w_hid", "w_txt", "w_vis")


def spy_adam_steps(monkeypatch) -> Counter:
    """Count Adam.step calls per (Adam instance, sorted parameter names)."""
    steps = Counter()
    adam_step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda adam, params, grads, **kw: (
        steps.update([(adam, tuple(sorted(params)))]), adam_step(adam, params, grads, **kw)))
    return steps


def stepped(steps: Counter) -> list[tuple[tuple[str, ...], int]]:
    """(arrays, step count) per Adam instance; each instance steps one set of arrays."""
    assert len({adam for adam, _ in steps}) == len(steps)
    assert all(adam.step_count == n for (adam, _), n in steps.items())
    return sorted((arrays, n) for (_, arrays), n in steps.items())


class TestIndependentOptimizers:
    """Each loss steps its own Adam over the arrays that loss touches."""

    def test_sl_steps_two_adams(self, tiny, monkeypatch):
        vocab, tr, va = tiny
        steps = spy_adam_steps(monkeypatch)
        result = sl_train(tr, va, tiny_model(vocab), tiny_config())
        assert 0 < result.visual_steps < result.iterations_run
        assert stepped(steps) == sorted([(VISUAL_ARRAYS, result.visual_steps),
                                         (TEXT_ARRAYS, result.text_steps)])

    def test_aggregated_steps_one_adam_over_all_arrays(self, tiny, monkeypatch):
        vocab, tr, va = tiny
        steps = spy_adam_steps(monkeypatch)
        result = aggregated_train(tr, va, tiny_model(vocab), tiny_config(), text_weight=0.5)
        assert result.visual_steps == result.text_steps == result.iterations_run
        assert stepped(steps) == [(ALL_ARRAYS, result.iterations_run)]

    @pytest.mark.parametrize("strategy", ["visreg", "aggregated_zero_weight"])
    def test_visual_only_steps_one_visual_adam(self, tiny, monkeypatch, strategy):
        vocab, tr, va = tiny
        steps = spy_adam_steps(monkeypatch)
        if strategy == "visreg":
            result = visreg_train(tr, va, tiny_model(vocab, text_branch=False), tiny_config())
        else:
            result = aggregated_train(tr, va, tiny_model(vocab), tiny_config(), text_weight=0.0)
        assert result.text_steps == 0
        assert stepped(steps) == [(VISUAL_ARRAYS, result.iterations_run)]


class TestSplitLosses:
    def test_text_loss_exactly_with_a_text_head(self, tiny):
        vocab, _, va = tiny
        model = tiny_model(vocab)
        loss_t, loss_v = optim._split_losses(model, va)
        assert loss_t is not None and loss_t > 0
        assert optim._split_losses(model.visual_branch(), va) == (None, loss_v)
        branchless = tiny_model(vocab, text_branch=False)
        assert optim._split_losses(branchless, va)[0] is None


class TestHistoryCsv:
    def test_roundtrip(self, tmp_path, tiny):
        vocab, tr, va = tiny
        result = sl_train(tr, va, tiny_model(vocab), tiny_config(max_iterations=100))
        path = tmp_path / "history.csv"
        result.history.to_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TrainHistory.CSV_HEADER
        assert rows[1:] == [[repr(p.iteration)] + ["" if x is None else repr(x) for x in
                                                    (p.train_loss_t, p.train_loss_v,
                                                     p.val_loss_t, p.val_loss_v)]
                            for p in result.history.points]

    def test_absent_values_empty(self, tmp_path):
        h = TrainHistory([HistoryPoint(0, None, 0.5, None, 0.25)])
        path = tmp_path / "history.csv"
        h.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,train_loss_t,train_loss_v,val_loss_t,val_loss_v"
        assert lines[1] == "0,,0.5,,0.25"

    def test_iterations_strictly_increasing(self, tiny):
        vocab, tr, va = tiny
        result = sl_train(tr, va, tiny_model(vocab), tiny_config(max_iterations=150))
        iters = [p.iteration for p in result.history.points]
        assert iters == sorted(set(iters))
        assert all(p.train_loss_v >= 0 and p.val_loss_v >= 0
                   for p in result.history.points)


class TestOverfittingControl:
    def test_text_branch_beats_or_outlasts_plain_regressor(self, training_runs):
        # per seed: the two-branch model either reaches a validation loss at
        # least as good as the plain regressor's, or the regressor's curve
        # rises >= 5% off its minimum while the two-branch model's rises less
        def rise(result):
            vals = [p.val_loss_v for p in result.history.points]
            at = int(np.argmin(vals))
            return 0.0 if at == len(vals) - 1 else (max(vals[at:]) - vals[at]) / vals[at]

        for seed in (0, 1, 2):
            sl = training_runs[("sl", seed)]
            visreg = training_runs[("visreg", seed)]
            better_minimum = sl.best_val_loss_v <= visreg.best_val_loss_v
            smaller_rise = rise(visreg) >= 0.05 and rise(sl) < rise(visreg)
            assert better_minimum or smaller_rise, f"seed {seed}"


class TestEncodeDataset:
    def test_empty_rejected(self, tiny):
        vocab, _, _ = tiny
        with pytest.raises(ValueError, match="empty"):
            encode_dataset([], vocab)

    def test_inconsistent_dims_rejected(self, tiny):
        vocab, _, _ = tiny
        images = [CaptionedImage(0, ["a"], np.ones(4, dtype=np.float32)),
                  CaptionedImage(1, ["b"], np.ones(5, dtype=np.float32))]
        with pytest.raises(ValueError, match="inconsistent"):
            encode_dataset(images, vocab)

    def test_model_dim_checked(self, tiny):
        vocab, tr, va = tiny
        model = nn.init_model(len(vocab) + 1, 8, 16, seed=0)
        with pytest.raises(ValueError, match="dims"):
            sl_train(tr, va, model, tiny_config())
