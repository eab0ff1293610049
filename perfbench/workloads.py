"""The three benchmark workloads: input generation, set-up and one round each.

A round is the workload's fixed sequence of operations; the runner repeats
rounds in a closed loop.  Every operation goes through text2vis's public API
(`optim.*_train`) or its command line (`cli.main`), looked up on the module at
call time so that a tracer installed on those attributes sees the call.  The
harness generates all inputs from the workload seed; the program only ever
sees the generated arrays and files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from text2vis import cli, data, nn, optim, retrieval, textvec

# The paper computes whole-split losses every 500 iterations over its training
# plus validation images (MS-COCO train, 82,783 images, plus a held-out
# validation split: about 90k images), i.e. about 180 evaluated examples per
# training iteration.  train-paper sizes its splits to keep that ratio, so
# eval points take the same share of trainer wall time as in the paper.
PAPER_EVAL_EXAMPLES_PER_ITER = 180

BATCH_SIZE = 100
NO_PATIENCE = 10**9  # early stopping off: every call runs its full budget
# The trainers' own seed (batch order, SL's branch coin) is fixed, not the
# workload seed: SL's visual and text steps cost differently, so a seeded mix
# would change the amount of work from seed to seed.
TRAINER_SEED = 0
STRATEGIES = ("sl", "aggregated", "visreg")
TRAINER_FN = {"sl": "sl_train", "aggregated": "aggregated_train", "visreg": "visreg_train"}
OOV_EVERY = 20  # one fully out-of-vocabulary query per this many searches


@dataclass
class Op:
    """One closed-loop operation and what its output check needs."""

    kind: str  # train.<strategy> | eval | search
    wall_s: float
    units: int  # iterations for a trainer call, queries for eval, 1 for search
    ok: bool
    error: str = ""
    detail: dict = field(default_factory=dict)


def _run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """cli.main in process, output captured; returns (code, stdout, stderr, wall)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


def _train_config(iters: int, eval_every: int) -> optim.TrainConfig:
    return optim.TrainConfig(batch_size=BATCH_SIZE, max_iterations=iters,
                             eval_every=eval_every, patience=NO_PATIENCE, seed=TRAINER_SEED)


def _train_ops(models: dict, train_set, val_set, config: optim.TrainConfig,
               keep_models: bool = False) -> tuple[list[Op], dict]:
    """One call of each trainer on a fresh copy of its set-up model.

    With `keep_models` the trained models are returned too.  It stays off
    where nothing uses them: at the published dims each one holds 100 MB,
    which would show in peak memory.
    """
    ops, trained = [], {}
    for strategy in STRATEGIES:
        model = models["visreg" if strategy == "visreg" else "text"].copy()
        trainer = getattr(optim, TRAINER_FN[strategy])
        started = time.perf_counter()
        try:
            result = trainer(train_set, val_set, model, config)
        except Exception as exc:  # a failed operation is counted, not fatal
            ops.append(Op(f"train.{strategy}", time.perf_counter() - started,
                          config.max_iterations, False, f"{type(exc).__name__}: {exc}"))
            continue
        wall = time.perf_counter() - started
        points = [(p.train_loss_t, p.train_loss_v, p.val_loss_t, p.val_loss_v)
                  for p in result.history.points]
        ops.append(Op(f"train.{strategy}", wall, result.iterations_run, True, detail={
            "points": points, "iterations_run": result.iterations_run,
            "max_iterations": config.max_iterations,
            "visual_steps": result.visual_steps, "text_steps": result.text_steps}))
        if keep_models:
            trained[strategy] = result.model
    return ops, trained


def _search_op(query: str, oov: bool, checkpoint: Path, vocab: Path,
               features: Path) -> Op:
    code, out, err, wall = _run_cli(["search", query, "--checkpoint", str(checkpoint),
                                     "--vocab", str(vocab), "--features", str(features)])
    return Op("search", wall, 1, code == 0, "" if code == 0 else err.strip(), detail={
        "query": query, "oov": oov, "stdout": out, "checkpoint": str(checkpoint),
        "vocab": str(vocab), "features": str(features)})


def _eval_op(captions: Path, n_queries: int, features: Path, vocab: Path,
             methods: list[str], checkpoints: dict[str, Path], out_dir: Path) -> Op:
    argv = ["eval", "--captions", str(captions), "--features", str(features),
            "--vocab", str(vocab), "--methods", ",".join(methods), "--split", "all",
            "--out", str(out_dir)]
    for name, path in checkpoints.items():
        argv += ["--checkpoint", f"{name}={path}"]
    code, _, err, wall = _run_cli(argv)
    return Op("eval", wall, n_queries, code == 0, "" if code == 0 else err.strip(), detail={
        "methods": methods, "out": str(out_dir), "captions": str(captions),
        "features": str(features), "vocab": str(vocab),
        "checkpoints": {k: str(v) for k, v in checkpoints.items()}})


def _nonneg_features(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """ReLU'd Gaussian rows, like fully-connected CNN activations; none all-zero."""
    feats = np.maximum(rng.standard_normal((n, dim), dtype=np.float32), 0.0)
    dead = ~feats.any(axis=1)
    feats[dead, 0] = 1.0
    return feats


def _term_captions(rng: np.random.Generator, terms: list[str], n_captions: int,
                   per_caption: int) -> list[str]:
    """Captions of `per_caption` terms; successive permutations of the
    vocabulary are cut into captions, so every term is used."""
    need = n_captions * per_caption
    stream = np.concatenate([rng.permutation(len(terms))
                             for _ in range(math.ceil(need / len(terms)))])[:need]
    return [" ".join(terms[i] for i in row)
            for row in stream.reshape(n_captions, per_caption)]


# ---------------------------------------------------------------------------
# train-paper
# ---------------------------------------------------------------------------

class TrainPaper:
    """SL, aggregated and visreg training at the published dims."""

    name = "train-paper"
    checks_descent = False  # 2 iterations from random weights need not descend
    SIZES = {
        "full": dict(vocab=10_358, hidden=1024, visual=4096, iters=2, eval_every=2,
                     terms_per_caption=10, captions_per_image=5),
        "tiny": dict(vocab=300, hidden=16, visual=32, iters=4, eval_every=2,
                     terms_per_caption=10, captions_per_image=5),
    }

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.workdir = seed, workdir
        d = self.dims = dict(self.SIZES[size])
        eval_points = 1 + d["iters"] // d["eval_every"]
        split = PAPER_EVAL_EXAMPLES_PER_ITER * d["iters"] // eval_points
        d["val_images"] = max(1, split // 10)
        d["train_images"] = split - d["val_images"]
        # Captions of further images complete the vocabulary corpus, so that
        # it holds every term however small the training split is.
        d["images"] = max(split, math.ceil(
            d["vocab"] / (d["terms_per_caption"] * d["captions_per_image"])))

    def generate(self) -> None:
        d = self.dims
        rng = np.random.default_rng(self.seed)
        terms = [f"w{i}" for i in range(d["vocab"])]
        captions = _term_captions(rng, terms, d["images"] * d["captions_per_image"],
                                  d["terms_per_caption"])
        feats = _nonneg_features(rng, d["images"], d["visual"])
        cpi = d["captions_per_image"]
        images = [data.CaptionedImage(i, captions[i * cpi:(i + 1) * cpi], feats[i])
                  for i in range(d["images"])]
        self.images = images
        self.val_images = images[:d["val_images"]]
        self.train_images = images[d["val_images"]:d["val_images"] + d["train_images"]]

    def setup(self) -> float:
        d = self.dims
        started = time.perf_counter()
        corpus = (textvec.tokenize(c) for img in self.images for c in img.captions)
        vocab = textvec.build_vocabulary(corpus, textvec.MODE_UNIGRAM,
                                         min_caption_freq_unigram=1)
        self.train_set = optim.encode_dataset(self.train_images, vocab)
        self.val_set = optim.encode_dataset(self.val_images, vocab)
        self.models = {
            "text": nn.init_model(len(vocab), d["hidden"], d["visual"], seed=self.seed),
            "visreg": nn.init_model(len(vocab), d["hidden"], d["visual"],
                                    has_text_branch=False, seed=self.seed + 1),
        }
        wall = time.perf_counter() - started
        if len(vocab) != d["vocab"]:
            raise RuntimeError(f"vocabulary has {len(vocab)} terms, expected {d['vocab']}")
        return wall

    def run_round(self, round_no: int) -> list[Op]:
        config = _train_config(self.dims["iters"], self.dims["eval_every"])
        ops, _ = _train_ops(self.models, self.train_set, self.val_set, config)
        return ops



# ---------------------------------------------------------------------------
# search-paper
# ---------------------------------------------------------------------------

# Run as `python3 -c INDEX_WRITER '<json kwargs>'` with this directory and the
# program's sources on PYTHONPATH.
INDEX_WRITER = ("import json, sys, workloads; "
                "workloads.write_paper_index(**json.loads(sys.argv[1]))")


def write_paper_index(features: str, checkpoint: str, seed: int, n: int,
                      vocab: int, hidden: int, visual: int) -> None:
    """Child-process body: the big input files, so the benchmark process's
    peak memory holds only what the program itself allocates."""
    rng = np.random.default_rng([seed, 1])
    data.save_features(features, range(n), _nonneg_features(rng, n, visual))
    nn.save_checkpoint(nn.init_model(vocab, hidden, visual, seed=seed), checkpoint)


def _write_paper_index_in_child(**kwargs) -> None:
    """write_paper_index in a child process that has ended when this returns
    (subprocess.run waits for it, also when it is interrupted)."""
    path = [str(Path(__file__).resolve().parent), str(Path(data.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = subprocess.run([sys.executable, "-c", INDEX_WRITER, json.dumps(kwargs)],
                          env=env, timeout=120).returncode
    if code != 0:
        raise RuntimeError(f"input generation exited with code {code}")


class SearchPaper:
    """Cold `search` and `eval` commands over a paper-sized index."""

    name = "search-paper"
    checks_descent = False
    SIZES = {
        "full": dict(vocab=10_358, hidden=1024, visual=4096, index_images=10_000,
                     eval_images=50, searches_per_round=7, terms_per_caption=10,
                     captions_per_image=5),
        "tiny": dict(vocab=300, hidden=16, visual=32, index_images=400,
                     eval_images=20, searches_per_round=7, terms_per_caption=10,
                     captions_per_image=5),
    }
    METHODS = ["text2vis", "vissim", "rrank"]

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.dims = dict(self.SIZES[size])
        self.paths = {name: workdir / file for name, file in (
            ("features", "features.t2vf"), ("checkpoint", "checkpoint.t2vm"),
            ("vocab", "vocab.txt"), ("captions", "eval_captions.json"))}

    def generate(self) -> None:
        d = self.dims
        _write_paper_index_in_child(
            features=str(self.paths["features"]), checkpoint=str(self.paths["checkpoint"]),
            seed=self.seed, n=d["index_images"], vocab=d["vocab"], hidden=d["hidden"],
            visual=d["visual"])

        rng = np.random.default_rng([self.seed, 2])
        terms = [f"w{i}" for i in range(d["vocab"])]
        textvec.Vocabulary(terms, textvec.MODE_UNIGRAM).save(self.paths["vocab"])
        cpi = d["captions_per_image"]
        ids = sorted(int(i) for i in rng.choice(d["index_images"], d["eval_images"],
                                                replace=False))
        captions = _term_captions(rng, terms, len(ids) * cpi, d["terms_per_caption"])
        data.save_captions(self.paths["captions"],
                           [(image_id, captions[k * cpi:(k + 1) * cpi])
                            for k, image_id in enumerate(ids)])
        # Typed traffic: mostly in-vocabulary terms, one query in OOV_EVERY made
        # only of words the vocabulary lacks.  It falls in the first round, so
        # every run meets it.
        oov_at = int(rng.integers(min(OOV_EVERY, d["searches_per_round"])))
        self.queries = []
        for i in range(OOV_EVERY):
            if i == oov_at:
                words = [f"x{int(j)}" for j in rng.integers(0, 10**6, 4)]
                self.queries.append((" ".join(words), True))
            else:
                words = rng.choice(terms, int(rng.integers(3, 11)), replace=False)
                self.queries.append((" ".join(words), False))

    def setup(self) -> float:
        started = time.perf_counter()
        textvec.Vocabulary.load(self.paths["vocab"])
        nn.load_checkpoint(self.paths["checkpoint"])
        ids, matrix = data.load_features(self.paths["features"])
        retrieval.build_index(ids, matrix)
        return time.perf_counter() - started

    def _search(self, k: int) -> Op:
        query, oov = self.queries[k % len(self.queries)]
        p = self.paths
        return _search_op(query, oov, p["checkpoint"], p["vocab"], p["features"])

    def run_round(self, round_no: int) -> list[Op]:
        p, n = self.paths, self.dims["searches_per_round"]
        ops = [_eval_op(p["captions"], self.dims["eval_images"], p["features"], p["vocab"],
                        self.METHODS, {"text2vis": p["checkpoint"]},
                        self.workdir / f"round{round_no}-eval")]
        ops += [self._search(n * round_no + i) for i in range(n)]
        return ops


# ---------------------------------------------------------------------------
# desk
# ---------------------------------------------------------------------------

class Desk:
    """The whole pipeline on the default synthetic dataset, ngram vocabulary."""

    name = "desk"
    checks_descent = True
    SIZES = {
        "full": dict(images=2000, hidden=128, iters=200, eval_every=200,
                     searches_per_round=50),
        "tiny": dict(images=200, hidden=16, iters=40, eval_every=20, searches_per_round=50),
    }
    METHODS = ["text2vis", "visreg", "vissim", "rrank"]

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.dims = dict(self.SIZES[size])
        self.paths = {name: workdir / file for name, file in (
            ("features", "features.t2vf"), ("vocab", "vocab.txt"),
            ("captions", "test_captions.json"))}

    def generate(self) -> None:
        d = self.dims
        # The dataset is the default SynthConfig's, its own seed included; the
        # workload seed draws the split, the initial weights and the queries.
        # A seeded dataset would change the n-gram count, and so the work,
        # from seed to seed.
        synth = data.SynthConfig(num_images=d["images"])
        images, _ = data.generate_synthetic(synth)
        d["visual"] = synth.visual_dim
        d["synth_vocab"] = synth.vocab_size
        order = np.random.default_rng([self.seed, 3]).permutation(len(images))
        n_test = n_val = len(images) // 10
        self.test_images = [images[i] for i in order[:n_test]]
        self.val_images = [images[i] for i in order[n_test:n_test + n_val]]
        self.train_images = [images[i] for i in order[n_test + n_val:]]
        data.save_features(self.paths["features"], [img.image_id for img in images],
                           np.stack([img.feature for img in images]))
        data.save_captions(self.paths["captions"],
                           [(img.image_id, img.captions) for img in self.test_images])
        # Queries are held-out captions the model never trained on.
        self.queries = [img.captions[1] for img in self.test_images]

    def setup(self) -> float:
        d = self.dims
        started = time.perf_counter()
        corpus = (textvec.tokenize(c) for img in self.train_images for c in img.captions)
        vocab = textvec.build_vocabulary(corpus, textvec.MODE_NGRAM)
        self.train_set = optim.encode_dataset(self.train_images, vocab)
        self.val_set = optim.encode_dataset(self.val_images, vocab)
        self.models = {
            "text": nn.init_model(len(vocab), d["hidden"], d["visual"], seed=self.seed),
            "visreg": nn.init_model(len(vocab), d["hidden"], d["visual"],
                                    has_text_branch=False, seed=self.seed + 1),
        }
        wall = time.perf_counter() - started
        vocab.save(self.paths["vocab"])
        d["vocab"] = len(vocab)
        return wall

    def run_round(self, round_no: int) -> list[Op]:
        d, p = self.dims, self.paths
        config = _train_config(d["iters"], d["eval_every"])
        ops, trained = _train_ops(self.models, self.train_set, self.val_set, config,
                                  keep_models=True)
        if "sl" not in trained or "visreg" not in trained:
            return ops  # nothing to evaluate or search with
        checkpoints = {"text2vis": self.workdir / f"round{round_no}-sl.t2vm",
                       "visreg": self.workdir / f"round{round_no}-visreg.t2vm"}
        nn.save_checkpoint(trained["sl"], checkpoints["text2vis"])
        nn.save_checkpoint(trained["visreg"], checkpoints["visreg"])
        ops.append(_eval_op(p["captions"], len(self.test_images), p["features"], p["vocab"],
                            self.METHODS, checkpoints, self.workdir / f"round{round_no}-eval"))
        n = d["searches_per_round"]
        for k in range(n * round_no, n * (round_no + 1)):
            query = self.queries[k % len(self.queries)]
            ops.append(_search_op(query, False, checkpoints["text2vis"], p["vocab"],
                                  p["features"]))
        return ops


WORKLOADS = {cls.name: cls for cls in (TrainPaper, SearchPaper, Desk)}
