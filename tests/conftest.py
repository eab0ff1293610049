"""Shared fixtures: the default synthetic dataset and the grid of training
runs (strategy x seed) that the end-to-end tests compare; and dense_grads,
which the gradient checks share."""

from __future__ import annotations

import os

# One BLAS thread, as perfbench runs: a second thread only spins on a small
# shared machine and doubles the suite's CPU time.  OpenBLAS reads these once,
# when numpy is first imported, which is below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from text2vis import data, nn, optim, textvec  # noqa: E402

TRAIN_SEEDS = (0, 1, 2)
TRAIN_HIDDEN = 128
TRAIN_ITERS = 6000
TRAIN_EVAL_EVERY = 200


@pytest.fixture(scope="session")
def synth_default():
    """Default synthetic dataset plus its ground truth."""
    return data.generate_synthetic(data.SynthConfig())


@pytest.fixture(scope="session")
def synth_vocab(synth_default):
    images, _ = synth_default
    corpus = (textvec.tokenize(c) for img in images for c in img.captions)
    return textvec.build_vocabulary(corpus, textvec.MODE_UNIGRAM)


@pytest.fixture(scope="session")
def synth_splits(synth_default):
    images, _ = synth_default
    return data.split_dataset(images, (0.7, 0.15, 0.15), seed=0)


@pytest.fixture(scope="session")
def encoded_splits(synth_splits, synth_vocab):
    return (optim.encode_dataset(synth_splits.train, synth_vocab),
            optim.encode_dataset(synth_splits.validation, synth_vocab))


def dense_grads(grads: dict, inputs: np.ndarray) -> dict:
    """``grads`` of a backward pass on ``inputs``, with the w_hid block
    scattered into the whole [hidden x vocab] gradient, every other column +0."""
    block = grads["w_hid"]
    w_hid = np.zeros((block.shape[0], inputs.shape[0]))
    w_hid[:, nn.active_rows(inputs)] = block
    return {**grads, "w_hid": w_hid}


def _train_config(seed: int) -> optim.TrainConfig:
    # patience is effectively disabled so the full loss curves are recorded
    return optim.TrainConfig(batch_size=100, max_iterations=TRAIN_ITERS,
                             eval_every=TRAIN_EVAL_EVERY, patience=10**9, seed=seed)


@pytest.fixture(scope="session")
def training_runs(encoded_splits, synth_vocab, synth_default):
    """TrainResult per (strategy, seed) under one shared budget."""
    train_set, val_set = encoded_splits
    images, _ = synth_default
    visual_dim = images[0].feature.shape[0]
    runs = {}
    for seed in TRAIN_SEEDS:
        for strategy in ("sl", "visreg", "aggregated"):
            model = nn.init_model(len(synth_vocab), TRAIN_HIDDEN, visual_dim,
                                  has_text_branch=strategy != "visreg", seed=seed)
            config = _train_config(seed)
            if strategy == "sl":
                result = optim.sl_train(train_set, val_set, model, config)
            elif strategy == "visreg":
                result = optim.visreg_train(train_set, val_set, model, config)
            else:
                result = optim.aggregated_train(train_set, val_set, model, config,
                                                text_weight=1.0)
            runs[(strategy, seed)] = result
    return runs
