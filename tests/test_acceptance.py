"""Release gate: one test per acceptance criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The training-dependent criteria share the session-scoped runs from
conftest (stochastic-loss / visual-only / aggregated, seeds 0-2).
"""

import math
import time
from functools import lru_cache
from itertools import permutations

import numpy as np
from conftest import dense_grads

from text2vis import evaluation, nn, optim, retrieval
from text2vis.cli import main
from text2vis.nn import Model
from text2vis.textvec import BowVector


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def _random_toy_setup(rng):
    vocab = int(rng.integers(4, 21))
    hidden = int(rng.integers(2, 9))
    visual = int(rng.integers(2, 9))
    u = lambda *shape: rng.uniform(-0.7, 0.7, size=shape)
    model = Model(w_hid=u(hidden, vocab), b_hid=u(hidden),
                  w_txt=u(vocab, hidden), b_txt=u(vocab),
                  w_vis=u(visual, hidden), b_vis=u(visual))
    n_on = int(rng.integers(1, min(6, vocab) + 1))
    on = tuple(sorted(int(i) for i in rng.choice(vocab, n_on, replace=False)))
    bow = BowVector(vocab, on)
    text_target = BowVector(vocab, tuple(
        sorted(int(i) for i in rng.choice(vocab, int(rng.integers(1, 4)), replace=False))))
    visual_target = rng.uniform(0.0, 1.5, visual)
    return model, bow, text_target, visual_target


def _min_abs_preactivation(model, bow):
    pre1 = model.b_hid + model.w_hid[:, list(bow.on_indices)].sum(axis=1)
    hidden = np.maximum(pre1, 0)
    pre2 = model.w_txt @ hidden + model.b_txt
    pre3 = model.w_vis @ hidden + model.b_vis
    return min(np.abs(pre1).min(), np.abs(pre2).min(), np.abs(pre3).min())


def _fd_check(loss_fn, model, analytic, h=1e-4):
    worst = 0.0
    for key, grad in analytic.items():
        flat = model.params()[key].reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            fd[i] = (up - down) / (2 * h)
        a = grad.reshape(-1)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-10)
        mask = np.maximum(np.abs(a), np.abs(fd)) > 1e-10
        if mask.any():
            worst = max(worst, float((np.abs(a - fd) / scale)[mask].max()))
    return worst


def test_c01_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(20240)
    checked = 0
    worst = 0.0
    while checked < 20:
        model, bow, text_target, visual_target = _random_toy_setup(rng)
        if _min_abs_preactivation(model, bow) <= 1e-3:
            continue
        # each loss on a batch of one
        inputs = nn.bow_matrix([bow.on_indices], bow.dim)
        text_targets = nn.bow_matrix([text_target.on_indices], bow.dim)
        visual_targets = visual_target[:, None]
        active = nn.active_rows(inputs)
        grads_t = dense_grads(nn.backward_text_batch(model, inputs, text_targets, active)[1],
                              inputs)
        worst = max(worst, _fd_check(
            lambda: nn.backward_text_batch(model, inputs, text_targets, active)[0], model,
            grads_t))
        grads_v = dense_grads(nn.backward_visual_batch(model, inputs, visual_targets, active)[1],
                              inputs)
        worst = max(worst, _fd_check(
            lambda: nn.backward_visual_batch(model, inputs, visual_targets, active)[0], model,
            grads_v))
        checked += 1
    elapsed = time.perf_counter() - started
    _verdict(1, "analytic gradients match central finite differences",
             worst < 1e-4 and elapsed < 10.0,
             f"{checked} models, max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Adam against a hand-derived scalar trace
# ---------------------------------------------------------------------------

def test_c02_adam_matches_hand_trace():
    # theta0 = 0.5, gradients 1.0, -2.0, 0.5, default hyperparameters;
    # expected values worked out independently, step by step
    expected = [0.49900000001, 0.4993661035347208, 0.49950279419673826]
    adam = optim.Adam()
    params = {"x": np.array([0.5])}
    errs = []
    for g, want in zip([1.0, -2.0, 0.5], expected):
        adam.step(params, {"x": np.array([g])})
        errs.append(abs(params["x"][0] - want))
    _verdict(2, "Adam reproduces the 3-step scalar trace to 1e-12",
             max(errs) < 1e-12, f"max abs err {max(errs):.2e}")


# ---------------------------------------------------------------------------
# 3. parameter counts at the published dimensions
# ---------------------------------------------------------------------------

def _zeros_model(vocab, hidden, visual):
    return Model(w_hid=np.zeros((hidden, vocab), dtype=np.float32),
                 b_hid=np.zeros(hidden, dtype=np.float32),
                 w_txt=np.zeros((vocab, hidden), dtype=np.float32),
                 b_txt=np.zeros(vocab, dtype=np.float32),
                 w_vis=np.zeros((visual, hidden), dtype=np.float32),
                 b_vis=np.zeros(visual, dtype=np.float32))


def test_c03_parameter_counts():
    unigram, ngram = (sum(p.size for p in _zeros_model(vocab, 1024, 4096).params().values())
                      for vocab in (10_358, 23_968))
    # exact value of 10358*1024 + 1024 + 1024*10358 + 10358 + 1024*4096 + 4096
    ok = (unigram == 25_422_966
          and round(unigram / 1e6, 1) == 25.4
          and abs(ngram - 53_300_000) <= 100_000)
    _verdict(3, "parameter counts are 25.4M / 53.3M at the published dims",
             ok, f"unigram {unigram:,}, ngram {ngram:,}")


# ---------------------------------------------------------------------------
# 4. metric oracles: DCG formula, ROUGE-L vs brute-force LCS, DCG ordering
# ---------------------------------------------------------------------------

def _dcg_independent(rels, p):
    total = 0.0
    for i, rel in enumerate(rels[:p], start=1):
        total += (2.0 ** rel - 1.0) / math.log2(i + 1)
    return total


def _lcs_recursive(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))
    return rec(len(a), len(b))


def test_c04_metric_oracles():
    rng = np.random.default_rng(4)

    dcg_err = 0.0
    for _ in range(100):
        rels = list(rng.uniform(0, 1, int(rng.integers(1, 40))))
        dcg_err = max(dcg_err, abs(evaluation.dcg(rels, 25) - _dcg_independent(rels, 25)))

    words = list("abcdefg")
    rouge_exact = True
    beta = 1.2
    for _ in range(100):
        cand = tuple(rng.choice(words, size=int(rng.integers(0, 10))))
        ref = tuple(rng.choice(words, size=int(rng.integers(0, 10))))
        lcs = _lcs_recursive(cand, ref)
        if lcs == 0:
            want = 0.0
        else:
            r, p = lcs / len(ref), lcs / len(cand)
            want = (1 + beta**2) * r * p / (r + beta**2 * p)
        rouge_exact &= evaluation.rouge_l(cand, ref, beta) == want

    ordering = True
    for size in range(1, 7):
        rels = list(rng.uniform(0, 1, size))
        best = evaluation.dcg(sorted(rels, reverse=True), p=size)
        ordering &= all(evaluation.dcg(list(perm), p=size) <= best + 1e-12
                        for perm in permutations(rels))

    _verdict(4, "DCG and ROUGE-L match independent oracles; sorted DCG maximal",
             dcg_err < 1e-12 and rouge_exact and ordering,
             f"max DCG err {dcg_err:.2e}")


# ---------------------------------------------------------------------------
# 5. retrieval vs a brute-force full sort, ties included
# ---------------------------------------------------------------------------

def test_c05_retrieval_matches_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    n, dim = 1000, 32
    vectors = rng.normal(size=(n, dim))
    vectors[100] = vectors[50]  # inject exact ties; ids then decide the order
    vectors[101] = vectors[50]
    ids = list(rng.permutation(5000)[:n])
    index = retrieval.build_index(ids, vectors)

    exact = True
    for qi in range(50):
        q = vectors[qi * 7] if qi % 3 == 0 else rng.normal(size=dim)
        got = retrieval.query(index, q, k=10)
        qn = q / np.linalg.norm(q)
        brute = sorted((float(np.linalg.norm(row - qn)), int(i))
                       for i, row in zip(index.ids, index.unit_rows()))
        exact &= got.ids() == [i for _, i in brute[:10]]
        exact &= all(abs(e.distance - d) < 1e-12
                     for e, (d, _) in zip(got.entries, brute[:10]))
    elapsed = time.perf_counter() - started
    _verdict(5, "query matches a brute-force full sort, including tie order",
             exact and elapsed < 5.0, f"50 queries over 1000 vectors, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. end-to-end ordering on the synthetic dataset
# ---------------------------------------------------------------------------

def test_c06_synthetic_ordering(training_runs, synth_splits, synth_vocab):
    run = training_runs[("sl", 0)]
    test = synth_splits.test
    queries, toks = evaluation.collection_queries(test)
    rankings = evaluation.rank_methods(["text2vis", "vissim", "rrank"], test, queries,
                                       synth_vocab, lambda name: run.model, p=25, seed=0)
    report = evaluation.evaluate(rankings, queries, toks, p=25)
    win_vs_rrank = report.win_rate("text2vis", "rrank")
    means = {m: report.mean_dcg(m) for m in report.methods}
    ok = (run.iterations_run <= 30_000 and run.wall_seconds < 600
          and win_vs_rrank > 0.9
          and means["text2vis"] > means["rrank"]
          and means["text2vis"] > means["vissim"])
    _verdict(6, "trained model beats RRank (win>0.9) and the VisSim analog",
             ok, f"DCG@25 text2vis={means['text2vis']:.3f} "
                 f"vissim={means['vissim']:.3f} rrank={means['rrank']:.3f}, "
                 f"win vs rrank {win_vs_rrank:.3f}, "
                 f"{run.iterations_run} iters in {run.wall_seconds:.0f}s")


# ---------------------------------------------------------------------------
# 7. the overfitting-control shape property
# ---------------------------------------------------------------------------

def _rise_above_min(history):
    vals = [p.val_loss_v for p in history.points]
    best_at = int(np.argmin(vals))
    if best_at == len(vals) - 1:
        return 0.0
    return (max(vals[best_at:]) - vals[best_at]) / vals[best_at]


def test_c07_text_branch_controls_overfitting(training_runs):
    details = []
    good_seeds = 0
    for seed in (0, 1, 2):
        visreg_rise = _rise_above_min(training_runs[("visreg", seed)].history)
        sl_rise = _rise_above_min(training_runs[("sl", seed)].history)
        if visreg_rise >= 0.05 and sl_rise < visreg_rise:
            good_seeds += 1
        details.append(f"seed{seed}: visreg +{visreg_rise:.1%} vs sl +{sl_rise:.1%}")
    _verdict(7, "visual-only regressor overfits harder than the two-branch model",
             good_seeds >= 2, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. stochastic loss selection vs the aggregated loss
# ---------------------------------------------------------------------------

C08_PAIRS = 5
C08_BURST_ITERS = 200


def _burst_cpu_ms_per_iter(trainer, train_set, val_set, hidden_dim: int, seed: int) -> float:
    """CPU ms per iteration of one short run from a fresh model; like the
    shared runs, it includes one eval point per 200 iterations."""
    model = nn.init_model(train_set.vocab_dim, hidden_dim, train_set.visual_dim, seed=seed)
    config = optim.TrainConfig(batch_size=100, max_iterations=C08_BURST_ITERS,
                               eval_every=C08_BURST_ITERS, patience=10**9, seed=seed)
    result = trainer(train_set, val_set, model, config)
    return result.cpu_seconds / result.iterations_run * 1000


def test_c08_sl_vs_aggregated(training_runs, encoded_splits, tmp_path):
    # The cost is timed here, in bursts that alternate between the two
    # strategies and alternate which one runs first, so a CPU-bound neighbour
    # that comes or goes during the test slows both strategies alike.
    train_set, val_set = encoded_splits
    hidden_dim = training_runs[("sl", 0)].model.hidden_dim
    trainers = {"sl": optim.sl_train, "aggregated": optim.aggregated_train}
    ms = {name: [] for name in trainers}
    for pair in range(C08_PAIRS):
        for name in (("sl", "aggregated") if pair % 2 == 0 else ("aggregated", "sl")):
            ms[name].append(_burst_cpu_ms_per_iter(trainers[name], train_set, val_set,
                                                   hidden_dim, seed=pair))
    sl_ms, agg_ms = np.median(ms["sl"]), np.median(ms["aggregated"])
    v_ok = t_ok = 0
    details = []
    for seed in (0, 1, 2):
        sl = training_runs[("sl", seed)]
        agg = training_runs[("aggregated", seed)]
        sl.history.to_csv(tmp_path / f"sl_seed{seed}.csv")
        agg.history.to_csv(tmp_path / f"aggregated_seed{seed}.csv")
        v_ok += sl.best_val_loss_v <= 1.05 * agg.best_val_loss_v
        sl_t = min(p.val_loss_t for p in sl.history.points)
        agg_t = min(p.val_loss_t for p in agg.history.points)
        t_ok += sl_t <= 1.05 * agg_t
        details.append(f"seed{seed}: val_v {sl.best_val_loss_v:.4f}/"
                       f"{agg.best_val_loss_v:.4f}")
    curves_written = len(list(tmp_path.glob("*.csv"))) == 6
    ok = sl_ms < agg_ms and v_ok >= 2 and t_ok >= 2 and curves_written
    _verdict(8, "SL is cheaper per iteration and optimizes both losses as well",
             ok, f"median {sl_ms:.2f} vs {agg_ms:.2f} CPU ms/iter over {C08_PAIRS} "
                 f"alternating bursts; val_v ok {v_ok}/3, val_t ok {t_ok}/3; "
                 + "; ".join(details))


# ---------------------------------------------------------------------------
# 9. bit-identical training runs through the CLI
# ---------------------------------------------------------------------------

def test_c09_cli_training_is_deterministic(tmp_path):
    ds = tmp_path / "ds"
    assert main(["gen-synth", "--out", str(ds), "--images", "150", "--topics", "5",
                 "--vocab-size", "100", "--visual-dim", "16", "--seed", "11"]) == 0
    vocab = tmp_path / "vocab.txt"
    assert main(["build-vocab", "--captions", str(ds / "captions.json"),
                 "--out", str(vocab), "--min-freq-unigram", "2"]) == 0
    argv = ["train", "--captions", str(ds / "captions.json"),
            "--features", str(ds / "features.t2vf"), "--vocab", str(vocab),
            "--strategy", "sl", "--hidden", "32", "--batch-size", "25",
            "--max-iters", "400", "--eval-every", "100", "--seed", "13"]
    assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
    assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
    same_history = (tmp_path / "r1" / "history.csv").read_bytes() == \
        (tmp_path / "r2" / "history.csv").read_bytes()
    same_checkpoint = (tmp_path / "r1" / "checkpoint.t2vm").read_bytes() == \
        (tmp_path / "r2" / "checkpoint.t2vm").read_bytes()
    _verdict(9, "fixed-seed training gives bit-identical history and checkpoint",
             same_history and same_checkpoint,
             f"history equal: {same_history}, checkpoint equal: {same_checkpoint}")


# ---------------------------------------------------------------------------
# 10. initializer statistics over a million draws
# ---------------------------------------------------------------------------

def test_c10_init_statistics():
    n_cols = 10_000
    model = nn.init_model(vocab_dim=n_cols, hidden_dim=100, visual_dim=2, seed=99)
    samples = model.w_hid.astype(np.float64)
    target = 1.0 / math.sqrt(n_cols)
    observed = float(samples.std())
    rel_err = abs(observed - target) / target
    bound = 2.0 * target / nn.TRUNC_STD_FACTOR  # two sampling deviations
    max_abs = float(np.abs(samples).max())
    ok = samples.size >= 1_000_000 and rel_err < 0.05 and max_abs <= bound * (1 + 1e-6)
    _verdict(10, "weight std is 1/sqrt(n_cols) and nothing escapes truncation",
             ok, f"{samples.size:,} draws, std {observed:.6f} vs {target:.6f} "
                 f"({rel_err:.2%}), max |w| {max_abs:.6f} <= {bound:.6f}")
