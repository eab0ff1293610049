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
from dataclasses import dataclass

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
        out = self.branch_params("vis")
        if self.has_text_branch:
            out.update(self.branch_params("txt"))
        return out

    def branch_params(self, head: str) -> dict[str, np.ndarray]:
        """The arrays one head's loss touches: the shared layer and that head."""
        return {"w_hid": self.w_hid, "b_hid": self.b_hid,
                f"w_{head}": getattr(self, f"w_{head}"), f"b_{head}": getattr(self, f"b_{head}")}

    def copy(self) -> "Model":
        return Model(
            w_hid=self.w_hid.copy(), b_hid=self.b_hid.copy(),
            w_txt=None if self.w_txt is None else self.w_txt.copy(),
            b_txt=None if self.b_txt is None else self.b_txt.copy(),
            w_vis=self.w_vis.copy(), b_vis=self.b_vis.copy(),
        )


@dataclass
class ForwardResult:
    hidden: np.ndarray
    text_recon: np.ndarray | None
    visual_pred: np.ndarray


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0)


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Zero-mean normal samples with standard deviation ``std``, rejection-sampled
    so nothing falls outside two sampling deviations."""
    sigma = std / TRUNC_STD_FACTOR
    out = rng.normal(0.0, sigma, size=shape)
    bad = np.abs(out) > 2.0 * sigma
    while bad.any():
        out[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * sigma
    return out


def init_model(vocab_dim: int, hidden_dim: int = 1024, visual_dim: int = 4096,
               has_text_branch: bool = True, seed: int = 0) -> Model:
    """Fresh model: weights truncated-normal with std 1/sqrt(fan-in), biases zero."""
    if vocab_dim < 1 or hidden_dim < 1 or visual_dim < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)

    def weights(rows, cols):
        return truncated_normal(rng, (rows, cols), 1.0 / math.sqrt(cols)).astype(np.float32)

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


def param_count(model: Model) -> int:
    """Exact number of scalars across all present weights and biases."""
    return sum(int(p.size) for p in model.params().values())


def mse(x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error (1/n) * sum((x_i - y_i)^2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError("mse of empty vectors is undefined")
    d = x - y
    return float(np.mean(d * d))


def _check_input_dim(model: Model, text_bow: BowVector) -> None:
    if text_bow.dim != model.vocab_dim:
        raise ValueError(
            f"input dim {text_bow.dim} does not match vocabulary dim {model.vocab_dim}")


def forward(model: Model, text_bow: BowVector) -> ForwardResult:
    """Run the net on one bag-of-words input: forward_batch on a batch of one."""
    _check_input_dim(model, text_bow)
    hidden, text_recon, visual_pred = forward_batch(
        model, text_bow.to_dense(np.float64)[:, None])
    return ForwardResult(hidden=hidden[:, 0],
                         text_recon=None if text_recon is None else text_recon[:, 0],
                         visual_pred=visual_pred[:, 0])


def backward_text(model: Model, text_bow: BowVector,
                  target_bow: BowVector) -> tuple[float, dict[str, np.ndarray]]:
    """Text-reconstruction loss and its gradients over {w_hid, b_hid, w_txt, b_txt};
    backward_text_batch on a batch of one."""
    if not model.has_text_branch:
        raise ValueError("model has no text branch")
    if target_bow.dim != model.vocab_dim:
        raise ValueError("target dim does not match vocabulary dim")
    _check_input_dim(model, text_bow)
    return backward_text_batch(model, text_bow.to_dense(np.float64)[:, None],
                               target_bow.to_dense(np.float64)[:, None])


def backward_visual(model: Model, text_bow: BowVector,
                    visual_target: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Visual-regression loss and its gradients over {w_hid, b_hid, w_vis, b_vis};
    backward_visual_batch on a batch of one."""
    visual_target = np.asarray(visual_target, dtype=np.float64)
    if visual_target.shape != (model.visual_dim,):
        raise ValueError("target dim does not match visual dim")
    _check_input_dim(model, text_bow)
    return backward_visual_batch(model, text_bow.to_dense(np.float64)[:, None],
                                 visual_target[:, None])


# ---------------------------------------------------------------------------
# Batched versions, used by the trainers and for ranking.  Inputs are dense
# float64 matrices with one column per example; returned gradients are means
# over the batch.
# ---------------------------------------------------------------------------

# Examples per forward pass over a whole split or query set: it bounds the
# [vocab x batch] input matrix and the activations.
BATCH_CHUNK = 512


def bow_matrix(index_lists, dim: int) -> np.ndarray:
    """The [dim x len(index_lists)] binary input matrix: column j has ones at
    the indices index_lists[j]."""
    out = np.zeros((dim, len(index_lists)))
    for col, idx in enumerate(index_lists):
        out[idx, col] = 1.0
    return out


def hidden_batch(model: Model, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pre-activation, activation) of the hidden layer for a [vocab x batch] input
    matrix.  Only the vocabulary rows that are non-zero somewhere in the batch are
    multiplied, and only their columns of w_hid are copied to float64: a zero row
    adds nothing to any sum."""
    active = np.flatnonzero(inputs.any(axis=1))
    pre = (model.w_hid[:, active].astype(np.float64) @ inputs[active]
           + model.b_hid.astype(np.float64)[:, None])
    return pre, relu(pre)


def _head(model: Model, head: str, hidden: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 weights and pre-activation of one head ("txt" or "vis") for a
    [hidden x batch] activation matrix."""
    w64 = getattr(model, f"w_{head}").astype(np.float64)
    return w64, w64 @ hidden + getattr(model, f"b_{head}").astype(np.float64)[:, None]


def forward_batch(model: Model, inputs: np.ndarray):
    """(hidden, text_recon, visual_pred) for a [vocab x batch] input matrix."""
    _, hidden = hidden_batch(model, inputs)
    text_recon = relu(_head(model, "txt", hidden)[1]) if model.has_text_branch else None
    return hidden, text_recon, relu(_head(model, "vis", hidden)[1])


def visual_predictions(model: Model, bows) -> np.ndarray:
    """The visual prediction of each bag of words, as the rows of a [len(bows) x
    visual] array, in one pass of the hidden layer and the visual head alone;
    callers with many bags of words pass them BATCH_CHUNK at a time.  For a
    single bag of words the row is bitwise forward(model, bow).visual_pred; for
    more, the head is one matrix product, whose sums may round differently in
    the last bits."""
    for bow in bows:
        _check_input_dim(model, bow)
    _, hidden = hidden_batch(model, bow_matrix([list(b.on_indices) for b in bows],
                                               model.vocab_dim))
    return np.ascontiguousarray(relu(_head(model, "vis", hidden)[1]).T)


def _head_backward_batch(model: Model, head: str, pre1, hidden, inputs, targets):
    """Loss and gradients of one head ("txt" or "vis") over {w_hid, b_hid, w_head, b_head}."""
    w_out64, pre_out = _head(model, head, hidden)
    diff = relu(pre_out) - targets
    loss = float(np.mean(diff * diff))

    delta_out = (2.0 / diff.size) * diff * (pre_out > 0)
    delta_hid = (w_out64.T @ delta_out) * (pre1 > 0)
    return loss, {"w_hid": delta_hid @ inputs.T, "b_hid": delta_hid.sum(axis=1),
                  f"w_{head}": delta_out @ hidden.T, f"b_{head}": delta_out.sum(axis=1)}


def backward_text_batch(model: Model, inputs: np.ndarray, targets: np.ndarray):
    """Mean text loss and mean per-example gradients for a batch."""
    return _head_backward_batch(model, "txt", *hidden_batch(model, inputs), inputs, targets)


def backward_visual_batch(model: Model, inputs: np.ndarray, targets: np.ndarray):
    """Mean visual loss and mean per-example gradients for a batch."""
    return _head_backward_batch(model, "vis", *hidden_batch(model, inputs), inputs, targets)


def backward_joint_batch(model: Model, inputs: np.ndarray, text_targets: np.ndarray | None,
                         visual_targets: np.ndarray, text_weight: float):
    """Gradients of visual_loss + text_weight * text_loss over all parameters.

    The hidden layer is computed once and shared by both heads.  With
    text_weight == 0 the text head is skipped entirely (text_targets may be
    None), so the shared-parameter gradients are bitwise those of the visual
    branch alone.
    """
    pre1, hidden = hidden_batch(model, inputs)
    loss_v, grads = _head_backward_batch(model, "vis", pre1, hidden, inputs, visual_targets)
    if text_weight == 0.0:
        grads["w_txt"] = np.zeros_like(model.w_txt, dtype=np.float64)
        grads["b_txt"] = np.zeros_like(model.b_txt, dtype=np.float64)
        return float("nan"), loss_v, grads
    loss_t, text_grads = _head_backward_batch(model, "txt", pre1, hidden, inputs, text_targets)
    grads["w_hid"] += text_weight * text_grads["w_hid"]
    grads["b_hid"] += text_weight * text_grads["b_hid"]
    grads["w_txt"] = text_weight * text_grads["w_txt"]
    grads["b_txt"] = text_weight * text_grads["b_txt"]
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
