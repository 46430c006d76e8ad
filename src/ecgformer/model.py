"""Patch-based transformer over fixed-width multi-lead ECG windows.

The window is cut into contiguous 64-sample patches across all leads, each
patch is flattened lead-major and linearly projected to the embedding width,
a learnable class token is prepended, positional embeddings are added, and a
pre-norm encoder stack runs self-attention over the sequence. The class
token's final state feeds a two-layer head; hand-crafted per-record (wide)
features are concatenated between the two layers, and a sigmoid yields one
probability per diagnosis class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .dsp import ProcessedWindow
from .errors import ConfigError, NumericalError, RecordFormatError, ShapeError


@dataclass
class ModelConfig:
    num_leads: int
    d_patch: int = 64
    d_model: int = 768
    num_layers: int = 12
    num_heads: int = 12
    d_ff: int = 768
    dropout_encoder: float = 0.1
    d_deep: int = 64
    d_wide: int = 22
    d_class: int = 26
    dropout_head: float = 0.2
    window_samples: int = 7680
    positional: str = "learned"  # or "sinusoidal"
    dropout_positional: bool = True
    mask_padding: bool = False
    gelu_exact: bool = False

    def __post_init__(self):
        dims = (self.num_leads, self.d_patch, self.d_model, self.num_layers, self.num_heads,
                self.d_ff, self.d_deep, self.d_wide, self.d_class, self.window_samples)
        if any(d < 1 for d in dims):
            raise ConfigError("all model dimensions must be >= 1")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by num_heads {self.num_heads}")
        if self.window_samples % self.d_patch != 0:
            raise ConfigError(f"window_samples {self.window_samples} not divisible by d_patch {self.d_patch}")
        if self.positional not in ("learned", "sinusoidal"):
            raise ConfigError(f"positional must be learned|sinusoidal, got {self.positional!r}")
        for name in ("dropout_encoder", "dropout_head"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")

    @property
    def num_patches(self) -> int:
        return self.window_samples // self.d_patch

    @property
    def d_token(self) -> int:
        return self.num_leads * self.d_patch

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos positional table (interleaved pairs)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    out = np.zeros((length, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles[:, : dim - dim // 2])
    return out


@dataclass
class ModelParams:
    """All learnable arrays, keyed by dotted names in `expected_shapes` order,
    with those shapes: `init_params` and `params_from_arrays` build them."""

    tensors: dict[str, Tensor]
    config: ModelConfig

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def trainable(self) -> dict[str, Tensor]:
        return {k: t for k, t in self.tensors.items() if t.requires_grad}

    def no_grad(self) -> "ModelParams":
        """The same arrays as constants: a forward through them records no graph."""
        return ModelParams({k: t.detach() for k, t in self.tensors.items()}, self.config)


TENSORS_OUTSIDE_LAYERS = 10  # patch projection (2), class token, positional table, final norm (2), head (4)
TENSORS_PER_LAYER = 16  # attention (8), feed-forward (4), two norms (4)


def expected_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Name -> shape map, TENSORS_OUTSIDE_LAYERS + TENSORS_PER_LAYER * num_layers
    entries; also fixes the canonical parameter order."""
    d, ff, deep = config.d_model, config.d_ff, config.d_deep
    shapes: dict[str, tuple] = {
        "patch_projection.weight": (config.d_token, d),
        "patch_projection.bias": (d,),
        "class_token": (d,),
        "positional_embedding": (config.num_patches + 1, d),
    }
    for i in range(config.num_layers):
        p = f"layers.{i}."
        for mat in ("w_q", "w_k", "w_v", "w_o"):
            shapes[p + f"attn.{mat}.weight"] = (d, d)
            shapes[p + f"attn.{mat}.bias"] = (d,)
        shapes[p + "ff.fc1.weight"] = (d, ff)
        shapes[p + "ff.fc1.bias"] = (ff,)
        shapes[p + "ff.fc2.weight"] = (ff, d)
        shapes[p + "ff.fc2.bias"] = (d,)
        shapes[p + "norm1.gain"] = (d,)
        shapes[p + "norm1.bias"] = (d,)
        shapes[p + "norm2.gain"] = (d,)
        shapes[p + "norm2.bias"] = (d,)
    shapes["final_norm.gain"] = (d,)
    shapes["final_norm.bias"] = (d,)
    shapes["head.fc1.weight"] = (d, deep)
    shapes["head.fc1.bias"] = (deep,)
    shapes["head.fc2.weight"] = (deep + config.d_wide, config.d_class)
    shapes["head.fc2.bias"] = (config.d_class,)
    return shapes


def parameter_count(config: ModelConfig) -> int:
    """Closed-form total parameter count for a configuration."""
    d, ff, deep = config.d_model, config.d_ff, config.d_deep
    per_layer = 4 * (d * d + d) + (d * ff + ff) + (ff * d + d) + 4 * d
    return (
        config.d_token * d + d  # patch projection
        + d  # class token
        + (config.num_patches + 1) * d  # positional table
        + config.num_layers * per_layer
        + 2 * d  # final norm
        + d * deep + deep  # head fc1
        + (deep + config.d_wide) * config.d_class + config.d_class  # head fc2
    )


def _truncated_normal(rng: np.random.Generator, shape, sigma: float = 0.02) -> np.ndarray:
    """Normal(0, sigma) with redraws outside two sigma.

    Each round redraws, in C order, only the positions whose last draw fell
    outside, and scans only those draws, so the draws land where a rescan of
    the whole tensor each round would put them."""
    out = rng.normal(0.0, sigma, size=shape)
    flat = out.reshape(-1)
    outside = np.flatnonzero(np.abs(flat) > 2.0 * sigma)
    while outside.size:
        redrawn = rng.normal(0.0, sigma, size=outside.size)
        flat[outside] = redrawn
        outside = outside[np.abs(redrawn) > 2.0 * sigma]
    return out


def init_params(config: ModelConfig, seed: int, dtype=np.float64) -> ModelParams:
    """Deterministic initialization: truncated normal for projections and
    embeddings, zeros for biases, ones for layer-norm gains; drawn in float64,
    then stored as `dtype`.

    The trainable tensors are views of one buffer, in `expected_shapes` order.
    When `ag.adam_init` moves them into its own flat buffer, this one is
    released whole, instead of leaving a freed array per tensor on the heap
    beside Adam's four buffers."""
    rng = np.random.default_rng(seed)
    shapes = expected_shapes(config)
    fixed = "positional_embedding" if config.positional == "sinusoidal" else None
    store = np.empty(sum(math.prod(shape) for name, shape in shapes.items() if name != fixed), dtype)
    tensors: dict[str, Tensor] = {}
    at = 0
    for name, shape in shapes.items():
        if name == fixed:
            tensors[name] = Tensor(sinusoidal_positions(shape[0], shape[1]), dtype=dtype)
            continue
        if name.endswith(".bias") or name == "final_norm.bias":
            data = np.zeros(shape)
        elif name.endswith(".gain"):
            data = np.ones(shape)
        else:
            data = _truncated_normal(rng, shape)
        view = store[at : at + data.size].reshape(shape)
        view[...] = data
        at += data.size
        tensors[name] = Tensor(view, requires_grad=True, dtype=dtype)
    return ModelParams(tensors, config)


def patchify(window: ProcessedWindow, config: ModelConfig) -> np.ndarray:
    """[num_leads x window] -> [N x (num_leads * d_patch)], lead-major per token."""
    sig = window.signal
    if sig.shape != (config.num_leads, config.window_samples):
        raise ShapeError(
            f"window shape {sig.shape} does not match config ({config.num_leads}, {config.window_samples})"
        )
    n, p = config.num_patches, config.d_patch
    # [leads, N, p] -> [N, leads, p] -> [N, leads*p]
    tokens = sig.reshape(config.num_leads, n, p).transpose(1, 0, 2).reshape(n, config.num_leads * p)
    return np.ascontiguousarray(tokens)


@dataclass
class ModelOutput:
    probabilities: Tensor
    logits: Tensor
    attention_maps: list[np.ndarray] | None = None


# A forward takes as many records as fit this many bytes of training graph
# (`graph_bytes`): a paper-size record runs alone, a toy batch as one graph.
GRAPH_BUDGET = 1 << 25


def graph_bytes(config: ModelConfig, itemsize: int = 8) -> int:
    """Estimated bytes of one record's training graph: the arrays its nodes'
    backwards keep once the forward has dropped every other output. Per layer
    that is 8 token-width arrays (the two norms' outputs and normalized
    inputs, the split q, k and v, the merged heads), 2 feed-forward-width ones
    (fc1's output, which GELU keeps, and GELU's output), 1 attention map (the
    softmax output) and each norm's inverse deviations, plus the boolean
    dropout draws at one byte each: the attention map's and the two residual
    ones. Before the layers come the tokens and the positional dropout draw;
    after them the final norm's normalized input and the head's vectors (the
    class token's state, fc1's output, its dropout draw, the row of deep and
    wide features and the output probabilities)."""
    t, d = config.num_patches + 1, config.d_model
    maps = config.num_heads * t
    per_layer = itemsize * t * (8 * d + 2 * config.d_ff + maps + 2) + t * (2 * d + maps)
    head = d + 2 * config.d_deep + config.d_wide + config.d_class
    outside = itemsize * (config.num_patches * config.d_token + t * d + t + head) + t * d + config.d_deep
    return outside + config.num_layers * per_layer


def records_per_forward(config: ModelConfig, records: int, itemsize: int = 8) -> int:
    """How many of `records` one forward takes under GRAPH_BUDGET (at least one)."""
    return max(1, min(records, GRAPH_BUDGET // graph_bytes(config, itemsize)))


def _linear(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    return ag.linear(x, params[prefix + ".weight"], params[prefix + ".bias"])


def _attention_block(
    x: Tensor,
    params: ModelParams,
    layer: int,
    config: ModelConfig,
    training: bool,
    rng,
    key_mask: np.ndarray | None,
    capture: list | None,
) -> Tensor:
    p = f"layers.{layer}.attn."
    b, heads = x.shape[0], config.num_heads
    q, k, v = (ag.split_heads(_linear(x, params, p + name), heads) for name in ("w_q", "w_k", "w_v"))
    scores = ag.attention_scores(q, k, 1.0 / math.sqrt(config.head_dim))
    if key_mask is not None:
        # Masked keys are pushed to -inf-like scores before softmax: one bias row per slot and head.
        bias = np.repeat(np.where(key_mask, 0.0, -1e30)[:, None, :], heads, axis=0)
        scores = ag.add(scores, Tensor(bias, dtype=x.data.dtype))
    attn = ag.softmax(scores)
    if capture is not None:
        capture.append(attn.data.reshape(b, heads, *attn.shape[1:]).copy())
    if training and config.dropout_encoder > 0.0:
        heads_out = ag.dropout_matmul(attn, v, config.dropout_encoder, rng)
    else:
        heads_out = ag.matmul(attn, v)
    return _linear(ag.merge_heads(heads_out, b), params, p + "w_o")


def forward(
    window: ProcessedWindow | list[ProcessedWindow],
    wide: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    mode: str = "eval",
    rng: np.random.Generator | int | list | None = None,
    capture_attention: bool = False,
) -> ModelOutput:
    """A batch of records through the network as one graph; mode is 'train'
    (dropout live) or 'eval'.

    `window` is a list of B windows with `wide` [B, d_wide] and `rng` a list
    of B generators or seeds (slot b draws every dropout mask from rng[b], as
    a forward of its record alone would); outputs are [B, d_class] and the
    attention maps [B, H, T, T]. Every slot's outputs and gradients are those
    of its record in a batch of one. One window with `wide` [d_wide] and one
    generator or seed is a batch of one with the batch axis dropped from the
    outputs. Eval runs on `params.no_grad()`, so it records no graph. The
    inputs become constants of the parameters' dtype.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be train|eval, got {mode!r}")
    training = mode == "train"
    single = isinstance(window, ProcessedWindow)
    windows = [window] if single else list(window)
    batch = len(windows)
    if not training:
        params, rng = params.no_grad(), None
    elif rng is not None:
        rng = [np.random.default_rng(r) for r in ([rng] if single else rng)]  # a generator passes through
        if len(rng) != batch:
            raise ShapeError(f"{len(rng)} dropout generators for a batch of {batch}")
    dtype = params["patch_projection.weight"].data.dtype
    wide = np.asarray(wide, dtype=np.float64)
    if wide.shape != ((config.d_wide,) if single else (batch, config.d_wide)):
        raise ShapeError(f"wide features have shape {wide.shape}, expected {batch} row(s) of {config.d_wide}")

    d, n = config.d_model, config.num_patches
    tokens = Tensor(np.stack([patchify(w, config) for w in windows]), dtype=dtype)
    projected = _linear(tokens, params, "patch_projection")
    cls = ag.broadcast_to(params["class_token"], (batch, 1, d))
    seq = ag.concat([cls, projected], axis=1)
    x = ag.add(seq, params["positional_embedding"])
    if config.dropout_positional:
        x = ag.dropout(x, config.dropout_encoder, rng, training)

    key_mask = None
    if config.mask_padding:
        # Token t covers samples [t*d_patch, (t+1)*d_patch); it is a padding
        # token when it starts at or past its window's pad_start. The class
        # token (column 0) is always attendable. One row per slot.
        starts = np.arange(n) * config.d_patch
        key_mask = np.array([np.concatenate([[True], starts < w.pad_start]) for w in windows])

    attention_maps: list[np.ndarray] | None = [] if capture_attention else None
    for layer in range(config.num_layers):
        pre = ag.layer_norm(x, params[f"layers.{layer}.norm1.gain"], params[f"layers.{layer}.norm1.bias"])
        attn_out = _attention_block(pre, params, layer, config, training, rng, key_mask, attention_maps)
        x = ag.add(x, ag.dropout(attn_out, config.dropout_encoder, rng, training))
        pre = ag.layer_norm(x, params[f"layers.{layer}.norm2.gain"], params[f"layers.{layer}.norm2.bias"])
        ff = _linear(ag.gelu(_linear(pre, params, f"layers.{layer}.ff.fc1"), config.gelu_exact), params, f"layers.{layer}.ff.fc2")
        x = ag.add(x, ag.dropout(ff, config.dropout_encoder, rng, training))

    x = ag.layer_norm(x, params["final_norm.gain"], params["final_norm.bias"])
    # Each slot's class token as a one-row matrix [B, 1, D]: a one-row product
    # takes another BLAS kernel than a row of a larger one, so it stays one row.
    cls_state = x[:, :1, :]
    deep = ag.gelu(_linear(cls_state, params, "head.fc1"), config.gelu_exact)
    deep = ag.dropout(deep, config.dropout_head, rng, training)
    combined = ag.concat([deep, Tensor(wide.reshape(batch, 1, config.d_wide), dtype=dtype)], axis=2)
    out_shape = (config.d_class,) if single else (batch, config.d_class)
    logits = ag.reshape(_linear(combined, params, "head.fc2"), out_shape)
    probabilities = ag.sigmoid(logits)
    if single and attention_maps is not None:
        attention_maps = [maps[0] for maps in attention_maps]
    return ModelOutput(probabilities=probabilities, logits=logits, attention_maps=attention_maps)


def params_from_arrays(arrays: dict[str, np.ndarray], config: ModelConfig) -> ModelParams:
    """Rebuild ModelParams (e.g. from a checkpoint) with trainability flags.

    Fewer arrays than the configuration needs raise before its shape map is
    built, so a `num_layers` far beyond the checkpoint costs no memory. An
    array holding a NaN or Inf is a RecordFormatError naming the tensor (the
    leaf's own finiteness check finds it).
    """
    needed = TENSORS_OUTSIDE_LAYERS + TENSORS_PER_LAYER * config.num_layers
    if len(arrays) < needed:
        raise ShapeError(f"checkpoint holds {len(arrays)} tensors, but num_layers={config.num_layers} needs {needed}")
    shapes = expected_shapes(config)
    unexpected = sorted(set(arrays) - set(shapes))
    if unexpected:
        raise ShapeError(f"checkpoint has unexpected parameters {unexpected}")
    tensors = {}
    for name, shape in shapes.items():
        if name not in arrays:
            raise ShapeError(f"checkpoint is missing parameter {name!r}")
        data = np.asarray(arrays[name], dtype=np.float64)
        if data.shape != shape:
            raise ShapeError(f"checkpoint parameter {name!r} has shape {data.shape}, expected {shape}")
        trainable = not (name == "positional_embedding" and config.positional == "sinusoidal")
        try:
            tensors[name] = Tensor(data, requires_grad=trainable)
        except NumericalError:
            raise RecordFormatError(f"checkpoint parameter {name!r} holds non-finite values") from None
    return ModelParams(tensors, config)
