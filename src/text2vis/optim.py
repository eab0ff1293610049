"""Training: Adam, the stochastic loss-selection loop (two independent
optimizers, a random branch per batch), the aggregated-loss alternative, a
visual-only loop for the plain regressor, and early stopping on validation loss.
"""

from __future__ import annotations

import math
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


def _gradient_blocks(g: np.ndarray, shape: tuple, ids: np.ndarray | None):
    """(flat slice, float64 gradient) of each block of Adam's walk over a
    parameter of ``shape``, in ascending order.

    Without ``ids`` the blocks are _ADAM_BLOCK-element slices of ``g``.  With
    ``ids``, ``g`` holds only the columns ``ids`` of a 2-D gradient; a block is
    then whole rows, scattered into a buffer whose other columns stay +0, so no
    gradient the size of the parameter is made.  A block is valid until the
    next one is drawn."""
    if ids is None:
        g = np.asarray(g, dtype=np.float64).reshape(-1)
        for start in range(0, g.size, _ADAM_BLOCK):
            yield slice(start, start + _ADAM_BLOCK), g[start:start + _ADAM_BLOCK]
        return
    rows, cols = shape
    per_block = max(1, _ADAM_BLOCK // cols)
    dense = np.zeros((per_block, cols))
    for start in range(0, rows, per_block):
        part = g[start:start + per_block]
        dense[:len(part), ids] = part
        yield slice(start * cols, (start + len(part)) * cols), dense[:len(part)].reshape(-1)


class Adam:
    """Adam with bias correction; moments are kept in float64 per parameter."""

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, alpha: float = 0.001):
        if math.isinf(alpha):
            raise ValueError("alpha must be finite")
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             columns: dict[str, np.ndarray] | None = None) -> None:
        """One update, in place; parameter dtypes are preserved.

        ``columns`` names, for a 2-D parameter, the ascending ids of the
        columns its gradient holds: grads[name] is then the [rows x len(ids)]
        block of those columns, and every other column's gradient is +0.

        Each parameter is walked in blocks (_gradient_blocks).  A block runs
        the operations of the textbook formula in its order,
            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            p = p - alpha*(m/bc1) / (sqrt(v/bc2) + eps)
        so the result is bitwise that formula's on the whole gradient, the
        +0 columns included, but no array the size of a parameter is
        allocated.  Every argument is checked before any parameter is touched.
        """
        columns = {name: np.asarray(ids) for name, ids in (columns or {}).items()}
        if set(params) != set(grads):
            raise ValueError("parameter and gradient keys differ")
        if not set(columns) <= set(params):
            raise ValueError("columns name a parameter that is not stepped")
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise ValueError(f"non-finite gradient for {name!r}")
            p = params[name]
            shape = p.shape
            if name in columns:
                ids = columns[name]
                if p.ndim != 2 or ids.ndim != 1 or ids.dtype.kind not in "iu":
                    raise ValueError(f"columns of {name!r} must be a 1-D integer array "
                                     "of a 2-D parameter")
                if ids.size and (ids[0] < 0 or ids[-1] >= p.shape[1]
                                 or (np.diff(ids) <= 0).any()):
                    raise ValueError(f"columns of {name!r} must ascend strictly "
                                     f"within [0, {p.shape[1]})")
                shape = (p.shape[0], ids.size)
            if np.shape(g) != shape:
                raise ValueError(
                    f"gradient shape {np.shape(g)} does not match {name!r} shape {shape}")
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous; "
                                 "it cannot be updated in place")
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        # A block of whole rows can be longer than _ADAM_BLOCK.
        work = max([_ADAM_BLOCK] + [params[name].shape[1] for name in columns])
        a = np.empty(work)
        b = np.empty(work)
        for name, p in params.items():
            if name not in self._m:
                self._m[name] = np.zeros(p.shape, dtype=np.float64)
                self._v[name] = np.zeros(p.shape, dtype=np.float64)
            m, v, flat = self._m[name].reshape(-1), self._v[name].reshape(-1), p.reshape(-1)
            for block, gb in _gradient_blocks(grads[name], p.shape, columns.get(name)):
                mb, vb, pb = m[block], v[block], flat[block]
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
        if math.isinf(self.learning_rate):
            raise ValueError("learning_rate must be finite")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")


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

    def to_csv(self, path) -> None:
        """`iteration,train_loss_t,train_loss_v,val_loss_t,val_loss_v`; absent as empty."""
        def cell(x):
            return "" if x is None else repr(x)

        write_csv(path, self.CSV_HEADER,
                  ([p.iteration, cell(p.train_loss_t), cell(p.train_loss_v),
                    cell(p.val_loss_t), cell(p.val_loss_v)] for p in self.points))


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
    """Captions pre-encoded to active-index arrays, and the features as the
    visual targets in their own dtype (float32 from a feature file): every loss
    subtracts them from float64 activations, which widens them exactly."""

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
    features = np.stack([img.feature for img in images])
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        bad = images[int(np.argmin(finite))].image_id
        raise ValueError(f"non-finite feature for image id {bad}")
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


def _split_losses(model: Model, ds: EncodedDataset) -> tuple[float | None, float]:
    """Deterministic whole-split losses, using each image's first caption as
    both the input and the reconstruction target.  Each head's differences are
    squared in its own output array, which keeps that array's layout, so every
    sum is bitwise that of a new array of squares."""
    sq_t = 0.0
    sq_v = 0.0
    for start in range(0, ds.size, nn.BATCH_CHUNK):
        cols = [caps[0] for caps in ds.caption_indices[start:start + nn.BATCH_CHUNK]]
        inputs = nn.bow_matrix(cols, ds.vocab_dim)
        _, text_recon, visual_pred = nn.forward_batch(model, inputs)
        np.subtract(visual_pred, ds.features[start:start + nn.BATCH_CHUNK].T, out=visual_pred)
        sq_v += float(np.square(visual_pred, out=visual_pred).sum())
        if text_recon is not None:
            np.subtract(text_recon, inputs, out=text_recon)
            sq_t += float(np.square(text_recon, out=text_recon).sum())
    loss_v = sq_v / (ds.size * ds.visual_dim)
    loss_t = sq_t / (ds.size * ds.vocab_dim) if model.has_text_branch else None
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
                  config: TrainConfig, choose, text_weight: float = 1.0,
                  progress=None) -> TrainResult:
    """The training loop shared by every strategy.

    Iteration 0 takes no step; each later one draws a batch and its caption
    picks, then ``choose(rng)`` names the loss to step: "visual", "text" or
    "joint" (visual + text_weight * text).  The batch's active vocabulary rows
    are found once: the backward pass multiplies only those rows and returns
    the w_hid gradient as the block of their columns, which Adam takes as is.
    Each loss has its own Adam, made on its first step over the arrays its
    gradients name, and steps only once every loss it computed is finite.
    Multiples of eval_every and the budget's end are eval points, and the
    result is read off the last one.
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
    adams: dict[str, Adam] = {}
    steps = {"visual": 0, "text": 0}

    for iteration in range(config.max_iterations + 1):
        if iteration:
            batch = sampler.next_batch()
            in_pick, out_pick = pick_captions(train.n_captions[batch], rng)
            captions = [train.caption_indices[i] for i in batch]
            inputs = nn.bow_matrix([c[p] for c, p in zip(captions, in_pick)], train.vocab_dim)
            active = nn.active_rows(inputs)
            loss_name = choose(rng)
            if loss_name != "visual":
                text_targets = nn.bow_matrix([c[p] for c, p in zip(captions, out_pick)],
                                             train.vocab_dim)
            if loss_name == "visual":
                loss_v, grads = nn.backward_visual_batch(model, inputs, train.features[batch].T,
                                                         active)
                losses = {"visual": loss_v}
            elif loss_name == "text":
                loss_t, grads = nn.backward_text_batch(model, inputs, text_targets, active)
                losses = {"text": loss_t}
            else:
                loss_t, loss_v, grads = nn.backward_joint_batch(
                    model, inputs, text_targets, train.features[batch].T, text_weight, active)
                losses = {"visual": loss_v, "text": loss_t}
            for branch, loss in losses.items():
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"{branch} loss is {loss} at iteration {iteration}")
                steps[branch] += 1
            if loss_name not in adams:
                adams[loss_name] = Adam(alpha=config.learning_rate)
            adams[loss_name].step({name: getattr(model, name) for name in grads}, grads,
                                  columns={"w_hid": active})

        if iteration % config.eval_every == 0 or iteration == config.max_iterations:
            tr_t, tr_v = _split_losses(model, train)
            va_t, va_v = _split_losses(model, val)
            history.points.append(HistoryPoint(iteration, tr_t, tr_v, va_t, va_v))
            stop, best_iteration = early_stop_check(history, config.patience)
            if best_iteration == iteration:
                best_point, best_model = history.points[-1], model.copy()
            if progress is not None:
                progress(history.points[-1])
            if iteration == 0:  # the clocks time what follows point 0
                started, cpu_started = time.perf_counter(), time.process_time()
            if stop:
                break

    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    return TrainResult(model=best_model, history=history,
                       best_iteration=best_iteration, best_val_loss_v=best_point.val_loss_v,
                       iterations_run=history.points[-1].iteration,
                       visual_steps=steps["visual"], text_steps=steps["text"],
                       wall_seconds=wall, stopped_early=stop, cpu_seconds=cpu)


def sl_train(train: EncodedDataset, val: EncodedDataset, model: Model,
             config: TrainConfig, progress=None) -> TrainResult:
    """Stochastic loss selection: per batch, flip a coin with
    P(visual) = sl_prob_visual and update only that branch with its own Adam."""
    if not model.has_text_branch:
        raise ValueError("stochastic-loss training needs the text branch")
    return _run_training(
        train, val, model, config,
        lambda rng: "visual" if rng.random() < config.sl_prob_visual else "text",
        progress=progress)


def aggregated_train(train: EncodedDataset, val: EncodedDataset, model: Model,
                     config: TrainConfig, text_weight: float = 1.0,
                     progress=None) -> TrainResult:
    """Single Adam minimizing visual + text_weight * text loss.  Weight 0 trains
    the visual branch through visreg_train and keeps a copy of the text head."""
    if not model.has_text_branch:
        raise ValueError("aggregated training needs the text branch")
    if not math.isfinite(text_weight):
        raise ValueError(f"text_weight must be finite, got {text_weight}")
    if text_weight == 0.0:
        result = visreg_train(train, val, model.visual_branch(), config, progress)
        result.model.w_txt, result.model.b_txt = model.w_txt.copy(), model.b_txt.copy()
        return result
    return _run_training(train, val, model, config, lambda rng: "joint", text_weight,
                         progress)


def visreg_train(train: EncodedDataset, val: EncodedDataset, model: Model,
                 config: TrainConfig, progress=None) -> TrainResult:
    """Visual branch only; any text head is left untouched."""
    return _run_training(train, val, model, config, lambda rng: "visual", progress=progress)
