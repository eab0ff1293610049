"""Training: Adam, the stochastic loss-selection loop (two independent
optimizers, a random branch per batch), the aggregated-loss alternative, a
visual-only loop for the plain regressor, and early stopping on validation loss.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import nn
from .data import CaptionedImage, write_csv
from .nn import Model
from .textvec import Vocabulary


class TrainingDiverged(RuntimeError):
    """A training loss became non-finite."""


# Elements per block of Adam's walk over a parameter: a block of the parameter,
# its gradient, both moments and the two work arrays stays in the CPU cache.
_ADAM_BLOCK = 1 << 14


class Adam:
    """Adam with bias correction; moments are kept in float64 per parameter."""

    def __init__(self, alpha: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        if alpha <= 0 or epsilon <= 0:
            raise ValueError("alpha and epsilon must be positive")
        if not (0 < beta1 < 1 and 0 < beta2 < 1):
            raise ValueError("betas must lie in (0, 1)")
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update, in place; parameter dtypes are preserved.

        Each parameter is walked in blocks of _ADAM_BLOCK elements.  A block
        runs the operations of the textbook formula in its order,
            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            p = p - alpha*(m/bc1) / (sqrt(v/bc2) + eps)
        so the result is bitwise that formula's, but no array the size of a
        parameter is allocated.  Every argument is checked before any
        parameter is touched.
        """
        if set(params) != set(grads):
            raise ValueError("parameter and gradient keys differ")
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise ValueError(f"non-finite gradient for {name!r}")
            p = params[name]
            if np.shape(g) != p.shape:
                raise ValueError(
                    f"gradient shape {np.shape(g)} does not match {name!r} shape {p.shape}")
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous; "
                                 "it cannot be updated in place")
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        a = np.empty(_ADAM_BLOCK)
        b = np.empty(_ADAM_BLOCK)
        for name, p in params.items():
            if name not in self._m:
                self._m[name] = np.zeros(p.shape, dtype=np.float64)
                self._v[name] = np.zeros(p.shape, dtype=np.float64)
            g = np.asarray(grads[name], dtype=np.float64).reshape(-1)
            m, v, flat = self._m[name].reshape(-1), self._v[name].reshape(-1), p.reshape(-1)
            for start in range(0, flat.size, _ADAM_BLOCK):
                block = slice(start, start + _ADAM_BLOCK)
                gb, mb, vb, pb = g[block], m[block], v[block], flat[block]
                ab, bb = a[:gb.size], b[:gb.size]
                mb *= b1
                np.multiply(gb, 1.0 - b1, out=ab)
                mb += ab
                vb *= b2
                np.multiply(gb, gb, out=ab)
                ab *= 1.0 - b2
                vb += ab
                np.divide(mb, bc1, out=ab)
                ab *= self.alpha
                np.divide(vb, bc2, out=bb)
                np.sqrt(bb, out=bb)
                bb += self.epsilon
                ab /= bb
                np.subtract(pb, ab, out=ab)
                pb[...] = ab


@dataclass
class TrainConfig:
    batch_size: int = 100
    max_iterations: int = 300_000
    eval_every: int = 500
    patience: int = 10
    sl_prob_visual: float = 0.5
    seed: int = 0
    learning_rate: float = 0.001

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_iterations < 1 or self.eval_every < 1:
            raise ValueError("max_iterations and eval_every must be >= 1")
        if not 0.0 <= self.sl_prob_visual <= 1.0:
            raise ValueError("sl_prob_visual must lie in [0, 1]")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


@dataclass
class HistoryPoint:
    iteration: int
    train_loss_t: float | None
    train_loss_v: float
    val_loss_t: float | None
    val_loss_v: float


@dataclass
class TrainHistory:
    points: list[HistoryPoint] = field(default_factory=list)

    CSV_HEADER = ["iteration", "train_loss_t", "train_loss_v", "val_loss_t", "val_loss_v"]

    def val_loss_v_series(self) -> list[float]:
        return [p.val_loss_v for p in self.points]

    def to_csv(self, path) -> None:
        """`iteration,train_loss_t,train_loss_v,val_loss_t,val_loss_v`; absent as empty."""
        def cell(x):
            return "" if x is None else repr(x)

        write_csv(path, self.CSV_HEADER,
                  ([p.iteration, cell(p.train_loss_t), cell(p.train_loss_v),
                    cell(p.val_loss_t), cell(p.val_loss_v)] for p in self.points))

    @classmethod
    def from_csv(cls, path) -> "TrainHistory":
        def parse(x):
            return None if x == "" else float(x)

        points = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != cls.CSV_HEADER:
                raise ValueError(f"{path}: unexpected history header {header}")
            for row in reader:
                points.append(HistoryPoint(int(row[0]), parse(row[1]), float(row[2]),
                                           parse(row[3]), float(row[4])))
        return cls(points)


@dataclass
class TrainResult:
    model: Model  # parameters at the best validation checkpoint
    history: TrainHistory
    best_iteration: int
    best_val_loss_v: float
    iterations_run: int
    visual_steps: int
    text_steps: int
    wall_seconds: float
    stopped_early: bool
    # CPU time of this process (all its threads) over the same span as
    # wall_seconds; unlike wall time, a CPU-bound neighbour does not inflate it.
    cpu_seconds: float


def early_stop_check(history: TrainHistory, patience: int) -> tuple[bool, int]:
    """Whether to stop, and the iteration of the best validation point so far.

    Stops once the running minimum of val_loss_v has gone max(1, patience)
    consecutive evaluations without a strict improvement.
    """
    if not history.points:
        raise ValueError("history is empty")
    best_idx = 0
    best = history.points[0].val_loss_v
    for i, point in enumerate(history.points):
        if point.val_loss_v < best:
            best = point.val_loss_v
            best_idx = i
    since_best = len(history.points) - 1 - best_idx
    return since_best >= max(1, patience), history.points[best_idx].iteration


# ---------------------------------------------------------------------------
# Dataset encoding and the shared training engine
# ---------------------------------------------------------------------------

@dataclass
class EncodedDataset:
    """Captions pre-encoded to active-index arrays, features as float64 targets."""

    vocab_dim: int
    features: np.ndarray  # [N x visual_dim]
    caption_indices: list[list[np.ndarray]]
    n_captions: np.ndarray

    @property
    def size(self) -> int:
        return len(self.caption_indices)

    @property
    def visual_dim(self) -> int:
        return self.features.shape[1]


def encode_dataset(images: Sequence[CaptionedImage], vocab: Vocabulary) -> EncodedDataset:
    if not images:
        raise ValueError("dataset is empty")
    dims = {img.feature.shape for img in images}
    if len(dims) != 1:
        raise ValueError(f"inconsistent feature shapes: {sorted(dims)}")
    features = np.stack([img.feature for img in images]).astype(np.float64)
    caption_indices = [
        [np.asarray(vocab.encode_text(c).on_indices, dtype=np.intp) for c in img.captions]
        for img in images
    ]
    return EncodedDataset(
        vocab_dim=len(vocab), features=features, caption_indices=caption_indices,
        n_captions=np.array([len(img.captions) for img in images], dtype=np.int64))


class _BatchSampler:
    """Fixed-size batches over a permutation, reshuffled after every full pass."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        self.n = n
        self.batch_size = batch_size
        self.rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def next_batch(self) -> np.ndarray:
        parts = []
        need = self.batch_size
        while need > 0:
            take = min(need, self.n - self._pos)
            parts.append(self._order[self._pos:self._pos + take])
            self._pos += take
            need -= take
            if self._pos == self.n:
                self._order = self.rng.permutation(self.n)
                self._pos = 0
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _split_losses(model: Model, ds: EncodedDataset, with_text: bool) -> tuple[float | None, float]:
    """Deterministic whole-split losses, using each image's first caption as
    both the input and the reconstruction target."""
    sq_t = 0.0
    sq_v = 0.0
    for start in range(0, ds.size, nn.BATCH_CHUNK):
        cols = [caps[0] for caps in ds.caption_indices[start:start + nn.BATCH_CHUNK]]
        inputs = nn.bow_matrix(cols, ds.vocab_dim)
        _, text_recon, visual_pred = nn.forward_batch(model, inputs)
        sq_v += float(((visual_pred - ds.features[start:start + nn.BATCH_CHUNK].T) ** 2).sum())
        if with_text:
            sq_t += float(((text_recon - inputs) ** 2).sum())
    loss_v = sq_v / (ds.size * ds.visual_dim)
    loss_t = sq_t / (ds.size * ds.vocab_dim) if with_text else None
    return loss_t, loss_v


def pick_captions(n_captions: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Input and output caption index per image, drawn independently and uniformly
    from each image's ``n_captions``."""
    picks = rng.random((len(n_captions), 2))
    in_pick = np.minimum((picks[:, 0] * n_captions).astype(np.int64), n_captions - 1)
    out_pick = np.minimum((picks[:, 1] * n_captions).astype(np.int64), n_captions - 1)
    return in_pick, out_pick


def _run_training(train: EncodedDataset, val: EncodedDataset, model: Model,
                  config: TrainConfig, step, track_text: bool,
                  progress=None) -> TrainResult:
    """The training loop shared by every strategy.

    Each iteration draws a batch and its caption picks, then calls
    ``step(rng, inputs, visual_targets, text_targets)``.  ``text_targets`` is a
    thunk, so the text targets are built only on steps that use them.  The step
    returns the losses of the branches it trained, keyed "visual"/"text", and
    the Adam update to apply once they are all finite: (adam, params, grads).
    """
    config.validate()
    if train.size == 0 or val.size == 0:
        raise ValueError("train and validation sets must be non-empty")
    for ds, name in ((train, "train"), (val, "validation")):
        if ds.vocab_dim != model.vocab_dim or ds.visual_dim != model.visual_dim:
            raise ValueError(f"{name} set dims do not match the model")

    rng = np.random.default_rng(config.seed)
    sampler = _BatchSampler(train.size, config.batch_size, rng)
    history = TrainHistory()
    best_snapshot: Model | None = None

    def evaluate_point(iteration: int) -> bool:
        """Record the split losses, keep the model if it is the best so far,
        and say whether to stop early."""
        nonlocal best_snapshot
        tr_t, tr_v = _split_losses(model, train, track_text)
        va_t, va_v = _split_losses(model, val, track_text)
        history.points.append(HistoryPoint(iteration, tr_t, tr_v, va_t, va_v))
        stop, best_iteration = early_stop_check(history, config.patience)
        if best_iteration == iteration:
            best_snapshot = model.copy()
        if progress is not None:
            progress(history.points[-1])
        return stop

    evaluate_point(0)
    steps = {"visual": 0, "text": 0}
    iterations_run = 0
    stopped_early = False
    started, cpu_started = time.perf_counter(), time.process_time()

    for iteration in range(1, config.max_iterations + 1):
        batch = sampler.next_batch()
        in_pick, out_pick = pick_captions(train.n_captions[batch], rng)
        inputs = nn.bow_matrix([train.caption_indices[i][p] for i, p in zip(batch, in_pick)],
                               train.vocab_dim)
        losses, adam, params, grads = step(
            rng, inputs, train.features[batch].T,
            lambda: nn.bow_matrix([train.caption_indices[i][p] for i, p in zip(batch, out_pick)],
                                  train.vocab_dim))
        for branch, loss in losses.items():
            if not np.isfinite(loss):
                raise TrainingDiverged(f"{branch} loss is {loss} at iteration {iteration}")
        adam.step(params, grads)
        for branch in losses:
            steps[branch] += 1

        iterations_run = iteration
        if iteration % config.eval_every == 0 and evaluate_point(iteration):
            stopped_early = True
            break

    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    _, best_iteration = early_stop_check(history, config.patience)
    best_val = min(p.val_loss_v for p in history.points)
    return TrainResult(model=best_snapshot, history=history,
                       best_iteration=best_iteration, best_val_loss_v=best_val,
                       iterations_run=iterations_run, visual_steps=steps["visual"],
                       text_steps=steps["text"], wall_seconds=wall,
                       stopped_early=stopped_early, cpu_seconds=cpu)


def sl_train(train: EncodedDataset, val: EncodedDataset, model: Model,
             config: TrainConfig, progress=None) -> TrainResult:
    """Stochastic loss selection: per batch, flip a coin with
    P(visual) = sl_prob_visual and update only that branch with its own Adam."""
    if not model.has_text_branch:
        raise ValueError("stochastic-loss training needs the text branch")
    adam_visual = Adam(alpha=config.learning_rate)
    adam_text = Adam(alpha=config.learning_rate)
    vis_params, txt_params = model.branch_params("vis"), model.branch_params("txt")

    def step(rng, inputs, visual_targets, text_targets):
        if rng.random() < config.sl_prob_visual:
            loss, grads = nn.backward_visual_batch(model, inputs, visual_targets)
            return {"visual": loss}, adam_visual, vis_params, grads
        loss, grads = nn.backward_text_batch(model, inputs, text_targets())
        return {"text": loss}, adam_text, txt_params, grads

    return _run_training(train, val, model, config, step, track_text=True,
                         progress=progress)


def aggregated_train(train: EncodedDataset, val: EncodedDataset, model: Model,
                     config: TrainConfig, text_weight: float = 1.0,
                     progress=None) -> TrainResult:
    """Single Adam over all parameters minimizing visual + text_weight * text loss."""
    if not model.has_text_branch:
        raise ValueError("aggregated training needs the text branch")
    adam = Adam(alpha=config.learning_rate)
    params = model.params()

    def step(rng, inputs, visual_targets, text_targets):
        with_text = text_weight != 0.0
        loss_t, loss_v, grads = nn.backward_joint_batch(
            model, inputs, text_targets() if with_text else None, visual_targets,
            text_weight)
        losses = {"visual": loss_v, "text": loss_t} if with_text else {"visual": loss_v}
        return losses, adam, params, grads

    return _run_training(train, val, model, config, step,
                         track_text=text_weight != 0.0, progress=progress)


def visreg_train(train: EncodedDataset, val: EncodedDataset, model: Model,
                 config: TrainConfig, progress=None) -> TrainResult:
    """Visual branch only; any text head is left untouched."""
    adam = Adam(alpha=config.learning_rate)
    params = model.branch_params("vis")

    def step(rng, inputs, visual_targets, text_targets):
        loss, grads = nn.backward_visual_batch(model, inputs, visual_targets)
        return {"visual": loss}, adam, params, grads

    return _run_training(train, val, model, config, step,
                         track_text=model.has_text_branch, progress=progress)
