"""The two-branch feedforward net: a shared hidden layer feeding a text
reconstruction head and a visual regression head.

    hidden      = ReLU(w_hid @ x + b_hid)        x: binary bag-of-words
    text_recon  = ReLU(w_txt @ hidden + b_txt)   (only with the text branch)
    visual_pred = ReLU(w_vis @ hidden + b_vis)

Parameters are stored float32; all arithmetic and gradient accumulation is
done in float64.  Gradients are computed analytically, per branch: the text
loss touches {w_hid, b_hid, w_txt, b_txt}, the visual loss {w_hid, b_hid,
w_vis, b_vis}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import BinaryFormat, FormatError
from .textvec import BowVector

CHECKPOINT_FORMAT = BinaryFormat(b"T2VM", 1, "IQQQ")  # flags, vocab, hidden, visual
_FLAG_TEXT_BRANCH = 1

# Std of a unit normal truncated at +-2 sigma: sqrt(1 - 4*phi(2)/(2*Phi(2)-1)).
# Sampling widths are divided by this so the post-truncation std hits the target.
TRUNC_STD_FACTOR = math.sqrt(
    1.0 - 4.0 * (math.exp(-2.0) / math.sqrt(2.0 * math.pi)) / math.erf(math.sqrt(2.0))
)


@dataclass
class Model:
    """Weights and biases of the network; heads are named by what they produce."""

    w_hid: np.ndarray  # [hidden x vocab]
    b_hid: np.ndarray  # [hidden]
    w_txt: np.ndarray | None  # [vocab x hidden], None without the text branch
    b_txt: np.ndarray | None  # [vocab]
    w_vis: np.ndarray  # [visual x hidden]
    b_vis: np.ndarray  # [visual]

    @property
    def vocab_dim(self) -> int:
        return self.w_hid.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_hid.shape[0]

    @property
    def visual_dim(self) -> int:
        return self.w_vis.shape[0]

    @property
    def has_text_branch(self) -> bool:
        return self.w_txt is not None

    def params(self) -> dict[str, np.ndarray]:
        """All present parameter arrays, keyed by field name."""
        return {name: arr for name, arr in vars(self).items() if arr is not None}

    def visual_branch(self) -> "Model":
        """This model without its text head; every array is shared, not copied."""
        return replace(self, w_txt=None, b_txt=None)

    def copy(self) -> "Model":
        return replace(self, **{name: a.copy() for name, a in self.params().items()})


@dataclass
class ForwardResult:
    hidden: np.ndarray
    text_recon: np.ndarray | None
    visual_pred: np.ndarray


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0)


# Elements per block of truncated_normal's first pass: a block's float64 draws
# and their rejection test stay in the CPU cache.
_SAMPLE_BLOCK = 1 << 16


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Zero-mean float32 normal samples with standard deviation ``std``,
    rejection-sampled so nothing falls outside two sampling deviations.

    The first pass draws the array in blocks of _SAMPLE_BLOCK, each written
    straight into the float32 result; each later round redraws, in ascending
    flat order, only the positions still rejected and tests only the new
    values.  The generator makes the draws of whole-array rejection in the same
    order, so the result is bitwise that sampler's float64 array cast to
    float32, but no float64 array the size of the result is made."""
    sigma = std / TRUNC_STD_FACTOR
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    rejected = [np.empty(0, dtype=np.intp)]
    for start in range(0, flat.size, _SAMPLE_BLOCK):
        draws = rng.normal(0.0, sigma, size=min(_SAMPLE_BLOCK, flat.size - start))
        flat[start:start + draws.size] = draws
        rejected.append(start + np.flatnonzero(np.abs(draws) > 2.0 * sigma))
    rejected = np.concatenate(rejected)
    while rejected.size:
        draws = rng.normal(0.0, sigma, size=rejected.size)
        flat[rejected] = draws
        rejected = rejected[np.abs(draws) > 2.0 * sigma]
    return out


def init_model(vocab_dim: int, hidden_dim: int = 1024, visual_dim: int = 4096,
               has_text_branch: bool = True, seed: int = 0) -> Model:
    """Fresh model: weights truncated-normal with std 1/sqrt(fan-in), biases zero."""
    if vocab_dim < 1 or hidden_dim < 1 or visual_dim < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)

    def weights(rows, cols):
        return truncated_normal(rng, (rows, cols), 1.0 / math.sqrt(cols))

    w_hid = weights(hidden_dim, vocab_dim)
    w_txt = weights(vocab_dim, hidden_dim) if has_text_branch else None
    w_vis = weights(visual_dim, hidden_dim)
    return Model(
        w_hid=w_hid,
        b_hid=np.zeros(hidden_dim, dtype=np.float32),
        w_txt=w_txt,
        b_txt=np.zeros(vocab_dim, dtype=np.float32) if has_text_branch else None,
        w_vis=w_vis,
        b_vis=np.zeros(visual_dim, dtype=np.float32),
    )


def _check_input_dim(model: Model, text_bow: BowVector) -> None:
    if text_bow.dim != model.vocab_dim:
        raise ValueError(
            f"input dim {text_bow.dim} does not match vocabulary dim {model.vocab_dim}")


def forward(model: Model, text_bow: BowVector) -> ForwardResult:
    """Run the net on one bag-of-words input: forward_batch on a batch of one.  The benchmark's
    oracle (perfbench/checks.py) and tracing.SPANS call it; it goes with ROADMAP.md item 1."""
    _check_input_dim(model, text_bow)
    hidden, text_recon, visual_pred = forward_batch(
        model, bow_matrix([text_bow.on_indices], model.vocab_dim))
    return ForwardResult(hidden=hidden[:, 0],
                         text_recon=None if text_recon is None else text_recon[:, 0],
                         visual_pred=visual_pred[:, 0])


# ---------------------------------------------------------------------------
# The batched network, used by the trainers and for ranking.  Inputs are
# dense float64 matrices with one column per example (a single example is a
# batch of one); returned gradients are means over the batch, and the w_hid
# gradient holds only the columns of the batch's active vocabulary rows.
# ---------------------------------------------------------------------------

# Examples per forward pass over a whole split or query set: it bounds the
# [vocab x batch] input matrix and the activations.
BATCH_CHUNK = 512


def bow_matrix(index_lists, dim: int) -> np.ndarray:
    """The [dim x len(index_lists)] binary input matrix: column j has ones at
    the indices index_lists[j], a tuple, list or integer array (possibly empty)."""
    out = np.zeros((dim, len(index_lists)))
    for col, idx in enumerate(index_lists):
        out[idx, col] = 1.0
    return out


def active_rows(inputs: np.ndarray) -> np.ndarray:
    """Ascending ids of the rows of a [vocab x batch] input matrix that are
    non-zero somewhere in the batch: a zero row adds nothing to any product
    with the inputs, so these are the only vocabulary rows a step reads."""
    return np.flatnonzero(inputs.any(axis=1))


def hidden_batch(model: Model, inputs: np.ndarray,
                 active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pre-activation, activation) of the hidden layer for a [vocab x batch] input
    matrix.  Only the rows ``active``, active_rows(inputs), are multiplied, and
    only their columns of w_hid are copied to float64."""
    pre = (np.take(model.w_hid, active, axis=1).astype(np.float64) @ inputs[active]
           + model.b_hid.astype(np.float64)[:, None])
    return pre, relu(pre)


def _head(model: Model, head: str, hidden: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 weights and pre-activation of one head ("txt" or "vis") for a
    [hidden x batch] activation matrix."""
    w64 = getattr(model, f"w_{head}").astype(np.float64)
    pre = w64 @ hidden
    pre += getattr(model, f"b_{head}").astype(np.float64)[:, None]
    return w64, pre


def _head_output(model: Model, head: str, hidden: np.ndarray) -> np.ndarray:
    """ReLU of one head's pre-activation, taken in the pre-activation's own array."""
    pre = _head(model, head, hidden)[1]
    return np.maximum(pre, 0, out=pre)


def forward_batch(model: Model, inputs: np.ndarray):
    """(hidden, text_recon, visual_pred) for a [vocab x batch] input matrix."""
    _, hidden = hidden_batch(model, inputs, active_rows(inputs))
    text_recon = _head_output(model, "txt", hidden) if model.has_text_branch else None
    return hidden, text_recon, _head_output(model, "vis", hidden)


def visual_predictions(model: Model, bows) -> np.ndarray:
    """The visual prediction of each bag of words, as the rows of a [len(bows) x
    visual] array: forward_batch on the model's visual branch, so no text head
    runs; callers with many bags of words pass them BATCH_CHUNK at a time.  For
    a single bag of words the row is bitwise forward(model, bow).visual_pred;
    for more, the head is one matrix product, whose sums may round differently
    in the last bits."""
    for bow in bows:
        _check_input_dim(model, bow)
    visual_pred = forward_batch(model.visual_branch(),
                                bow_matrix([b.on_indices for b in bows], model.vocab_dim))[2]
    return np.ascontiguousarray(visual_pred.T)


def _head_backward_batch(model: Model, head: str, pre1, hidden, inputs, targets, active):
    """Loss and gradients of one head ("txt" or "vis") over {w_hid, b_hid, w_head, b_head}.

    grads["w_hid"] is the [hidden x len(active)] block of the w_hid gradient's
    columns ``active``, ``delta_hid @ inputs[active].T``.  The product's inner
    dimension is the batch, so the block is bitwise those columns of the dense
    ``delta_hid @ inputs.T``, and every other column of that product is +0."""
    w_out64, pre_out = _head(model, head, hidden)
    diff = relu(pre_out) - targets
    loss = float(np.mean(diff * diff))

    delta_out = (2.0 / diff.size) * diff * (pre_out > 0)
    delta_hid = (w_out64.T @ delta_out) * (pre1 > 0)
    del w_out64, pre_out, diff  # freed before the head's weight gradient is made
    return loss, {"w_hid": delta_hid @ inputs[active].T, "b_hid": delta_hid.sum(axis=1),
                  f"w_{head}": delta_out @ hidden.T, f"b_{head}": delta_out.sum(axis=1)}


def backward_text_batch(model: Model, inputs: np.ndarray, targets: np.ndarray,
                        active: np.ndarray):
    """Mean text loss and mean per-example gradients for a batch.  The w_hid
    gradient is the block of its columns ``active``, active_rows(inputs); see
    _head_backward_batch."""
    return _head_backward_batch(model, "txt", *hidden_batch(model, inputs, active),
                                inputs, targets, active)


def backward_visual_batch(model: Model, inputs: np.ndarray, targets: np.ndarray,
                          active: np.ndarray):
    """Mean visual loss and mean per-example gradients for a batch, with the
    w_hid gradient as in backward_text_batch."""
    return _head_backward_batch(model, "vis", *hidden_batch(model, inputs, active),
                                inputs, targets, active)


def backward_joint_batch(model: Model, inputs: np.ndarray, text_targets: np.ndarray,
                         visual_targets: np.ndarray, text_weight: float,
                         active: np.ndarray):
    """Gradients of visual_loss + text_weight * text_loss over all parameters,
    with the w_hid gradient as in backward_text_batch.

    The hidden layer is computed once and shared by both heads.  The text
    head's gradients are scaled in place, then its w_hid and b_hid gradients
    are added to the visual head's: the sum of the two heads' products, not
    one product of their summed deltas, which would round differently.
    """
    pre1, hidden = hidden_batch(model, inputs, active)
    loss_v, grads = _head_backward_batch(model, "vis", pre1, hidden, inputs, visual_targets,
                                         active)
    loss_t, text_grads = _head_backward_batch(model, "txt", pre1, hidden, inputs,
                                              text_targets, active)
    for g in text_grads.values():
        g *= text_weight
    grads["w_hid"] += text_grads.pop("w_hid")
    grads["b_hid"] += text_grads.pop("b_hid")
    grads.update(text_grads)
    return loss_t, loss_v, grads


# ---------------------------------------------------------------------------
# Checkpoints: CHECKPOINT_FORMAT, header flags u32 (bit 0 = text branch) and
# dims (vocab, hidden, visual) as u64, then float32 arrays: w_hid, b_hid,
# [w_txt, b_txt,] w_vis, b_vis.
# ---------------------------------------------------------------------------

def _layout(flags: int, vocab_dim: int, hidden_dim: int, visual_dim: int) -> dict:
    """{name: (dtype, shape)} of the checkpoint's arrays, in file order."""
    shapes = {"w_hid": (hidden_dim, vocab_dim), "b_hid": (hidden_dim,)}
    if flags & _FLAG_TEXT_BRANCH:
        shapes.update(w_txt=(vocab_dim, hidden_dim), b_txt=(vocab_dim,))
    shapes.update(w_vis=(visual_dim, hidden_dim), b_vis=(visual_dim,))
    return {name: ("f4", shape) for name, shape in shapes.items()}


def save_checkpoint(model: Model, path) -> None:
    fields = (_FLAG_TEXT_BRANCH if model.has_text_branch else 0,
              model.vocab_dim, model.hidden_dim, model.visual_dim)
    CHECKPOINT_FORMAT.write(path, fields, [(dtype, getattr(model, name))
                                           for name, (dtype, _) in _layout(*fields).items()])


def load_checkpoint(path) -> Model:
    arrays = CHECKPOINT_FORMAT.read(path, _layout)
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: non-finite values in {name}")
    return Model(**{"w_txt": None, "b_txt": None,
                    **{name: arr.astype(np.float32, copy=False)
                       for name, arr in arrays.items()}})
