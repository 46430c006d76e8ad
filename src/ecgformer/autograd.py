"""Dense tensors with reverse-mode automatic differentiation.

The graph is kept apart from the values. Every operation records, in a
small `Node` (shape, parents' nodes, op), an exact backward: a module-level
function bound by `functools.partial` to its parents' nodes and the arrays
it reads, and nothing else. Those arrays are the operands of a product, the
outputs of `softmax` and `sigmoid`, `gelu`'s input, `layer_norm`'s
normalized input and inverse deviation, and each dropout's boolean draw. A
backward rebuilds what is cheap to rebuild with the forward's own
operations on the same arrays, so it reads the forward's bytes: the dropout
mask from its one-byte draw, and the tanh of `gelu`'s tanh form from its
input. The `Tensor` a caller holds carries a value and its node, so an
output that no backward reads (a projection before the head split, the
scores before the softmax, a residual sum) is freed as soon as the caller
drops it. `collect_gradients`
walks the nodes once in reverse topological order, accumulating gradients
additively across fan-out and dropping each one as soon as nothing left in
the pass needs it. There is one way to run backward: each pass adds every
wanted leaf's gradient in place into a gradient total the caller owns and
zeroes. Tensors are float64 unless built with another dtype (float32
training runs on float32 parameters); gradient checks always run in float64. `matmul` takes 2-d
operands, 3-d operands batched over a shared leading axis, or a 3-d operand
times a shared 2-d matrix; a backward skips the product for any operand
that needs no gradient. No array power goes through NumPy's general `pow`,
which is many times slower than a product: `gelu` (tanh form) cubes as
`x * x * x`, and squares are `x**2`, which NumPy computes as `x * x`.

A graph's cost at small sizes is per node (each node's output and incoming
gradient get one finiteness scan), so the model's chains run as fused
nodes: `linear` (product plus bias), `split_heads` and `merge_heads` (the
reshape, axis swap, reshape that put all attention heads in one batched
product and back), `attention_scores` (`q @ kᵀ` times the scale) and
`dropout_matmul` (the attention map's dropout, then its product with the
values, without keeping the dropped map). Each runs the NumPy calls of the
chain it replaces, in the same order and on the same arrays, so it gives
the chain's bytes, and checks once.
`embedding_row_select`, which the model no longer calls, stays while
`ecgbench/tracer.py` traces it.

Graphs are batch-first: the leading axis of an activation holds one record
per slot. A parameter shared by every slot gets the gradient each slot would
give it alone, summed over the slots in slot order, so a minibatch in one
graph yields the bytes of one graph per record added into a running total.

Also home to Adam. `adam_init` moves the parameters into one flat buffer
and rebinds each `Tensor.data` to its view of it; the moments and the step's
gradient total get flat buffers of the same layout. The step's reverse
passes add into that total's views, `state["grad"]`, and `adam_step` reads
only them, updating every parameter in one pass of fixed-size blocks, in
place. Last comes the binary checkpoint format (magic ``WFT1``: u32 tensor
count, then per tensor u16 name length + name bytes, u8 ndims, u32 dims,
float32 little-endian row-major data), which is parsed strictly: a
wrong-magic, short, overlong or duplicate-name file is a `RecordFormatError`.
"""

from __future__ import annotations

import math
import os
import struct
from functools import partial

import numpy as np

from .errors import NumericalError, RecordFormatError, ShapeError

def _check_finite(data: np.ndarray, op: str):
    if not np.isfinite(data).all():
        raise NumericalError(f"{op} produced non-finite values")


class Node:
    """One vertex of a recorded graph: what the reverse pass needs of a tensor, without its value.

    A node links its parents' nodes and holds the backward, which keeps only
    the arrays it reads. A `Tensor` carries a value and its
    node, so an output that no backward reads is freed as soon as the
    caller drops its `Tensor`, while the graph behind it stays.
    """

    __slots__ = ("requires_grad", "shape", "_parents", "_backward", "_op", "_consumed")

    def __init__(self, requires_grad: bool, shape: tuple, parents: tuple, backward, op: str):
        self.requires_grad = requires_grad
        self.shape = shape
        self._parents: tuple[Node, ...] = parents
        self._backward = backward
        self._op = op
        self._consumed = False


class Tensor:
    """n-d array that can participate in gradient recording: a value and its graph node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None, _op: str = "leaf"):
        self.data = np.asarray(data, dtype=dtype or np.float64)
        _check_finite(self.data, _op)
        self._node = Node(bool(requires_grad), self.data.shape, (), None, _op)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _parents(self) -> tuple[Node, ...]:
        return self._node._parents

    @property
    def _op(self) -> str:
        return self._node._op

    @property
    def _backward(self):
        return self._node._backward

    @_backward.setter
    def _backward(self, backward):
        self._node._backward = backward

    def detach(self) -> "Tensor":
        """A constant over the same array (no copy, no finiteness scan): ops on it record no graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out._node = Node(False, self.data.shape, (), None, "leaf")
        return out

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward, op):
        """A new tensor over `data`, recording `backward` under the nodes of the
        tensors in `parents` when any of them needs a gradient. `backward(grad,
        grads)` hands each parent's gradient to `grads(node, g)`, the parent
        given as its node, so the backward need not keep the parent's tensor."""
        _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        if any(p._node.requires_grad for p in parents):
            out._node = Node(True, data.shape, tuple(p._node for p in parents), backward, op)
        else:
            out._node = Node(False, data.shape, (), None, op)
        return out

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tensor_slice(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self):
        return transpose(self)


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to `shape` by summing the broadcast axes.

    When `grad` has more axes than `shape`, its first axis is the slot axis:
    each slot is reduced on its own, then the slots are summed in order.
    (NumPy sums a C-ordered array over an outer axis one index after the
    other, so `g.sum(axis=1)[s]` is `g[s].sum(axis=0)` bit for bit, and
    `g.sum(axis=0)` is `g[0] + g[1] + ...` in that order.)
    """
    slots = grad.ndim > len(shape)
    while grad.ndim > len(shape) + slots:
        grad = grad.sum(axis=1)
    for axis, size in enumerate(shape, start=slots):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.sum(axis=0) if slots else grad


def _check_trailing_broadcast(a: Tensor, b: Tensor, op: str):
    # Broadcasting is restricted to leading axes: the shorter shape must
    # match the trailing axes of the longer one (size-1 axes also allowed).
    sa, sb = a.shape, b.shape
    short, long_ = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    offset = len(long_) - len(short)
    for i, s in enumerate(short):
        if s != long_[offset + i] and s != 1 and long_[offset + i] != 1:
            raise ShapeError(f"{op}: shapes {sa} and {sb} are not leading-axis broadcastable")


def _add_backward(na, nb, grad, grads):
    if na.requires_grad:
        grads(na, _unbroadcast(grad, na.shape))
    if nb.requires_grad:
        grads(nb, _unbroadcast(grad, nb.shape))


def add(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, dtype=a.data.dtype)
    _check_trailing_broadcast(a, b, "add")
    data = a.data + b.data
    return Tensor._result(data, (a, b), partial(_add_backward, a._node, b._node), "add")


def _mul_backward(na, nb, a, b, grad, grads):
    if na.requires_grad:
        grads(na, _unbroadcast(grad * b, na.shape))
    if nb.requires_grad:
        grads(nb, _unbroadcast(grad * a, nb.shape))


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, dtype=a.data.dtype)
    _check_trailing_broadcast(a, b, "mul")
    data = a.data * b.data
    na, nb = a._node, b._node
    # Each operand's gradient reads the other operand.
    backward = partial(_mul_backward, na, nb, a.data if nb.requires_grad else None,
                       b.data if na.requires_grad else None)
    return Tensor._result(data, (a, b), backward, "mul")


def _matmul_backward(na, nb, a, b, grad, grads):
    if na.requires_grad:
        grads(na, grad @ np.swapaxes(b, -1, -2))
    if nb.requires_grad:
        grads(nb, _right_operand_grad(a, grad, shared=b.ndim < a.ndim))


def matmul(a, b) -> Tensor:
    """Product of two 2-d operands, of two 3-d operands batched over axis 0, or
    of a 3-d operand and a 2-d matrix shared by every slot of its axis 0."""
    a, b = as_tensor(a), as_tensor(b)
    if (a.ndim, b.ndim) not in ((2, 2), (3, 3), (3, 2)):
        raise ShapeError(f"matmul expects 2-d @ 2-d, 3-d @ 3-d or 3-d @ 2-d operands, got {a.shape} @ {b.shape}")
    if a.ndim == b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul: batch axes differ, {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    data = a.data @ b.data
    return Tensor._result(data, (a, b), partial(_matmul_backward, a._node, b._node, a.data, b.data), "matmul")


def _right_operand_grad(a: np.ndarray, grad: np.ndarray, shared: bool) -> np.ndarray:
    """The gradient of `b` in `a @ b`. A `shared` b is one 2-d matrix for every
    slot of a's axis 0: each slot's own product, then the slots in order (one
    slot takes its 2-d product, as a batch of one would)."""
    if not shared:
        return np.swapaxes(a, -1, -2) @ grad
    if a.shape[0] == 1:
        return np.swapaxes(a[0], -1, -2) @ grad[0]
    return (np.swapaxes(a, -1, -2) @ grad).sum(axis=0)


def _linear_backward(nx, nw, nbias, x, w, grad, grads):
    if nx.requires_grad:
        grads(nx, grad @ np.swapaxes(w, -1, -2))
    if nw.requires_grad:
        grads(nw, _right_operand_grad(x, grad, shared=x.ndim == 3))
    if nbias.requires_grad:
        grads(nbias, _unbroadcast(grad, nbias.shape))


def linear(x, w, bias) -> Tensor:
    """`x @ w + bias` as one node: the `matmul` and `add` chain's NumPy calls,
    without keeping the product before the bias. `x` is 2-d, or 3-d with one
    slot per index of axis 0; `w` is a 2-d matrix shared by every slot and
    `bias` a vector of its width."""
    x, w, bias = as_tensor(x), as_tensor(w), as_tensor(bias)
    if x.ndim not in (2, 3) or w.ndim != 2 or bias.shape != w.shape[1:]:
        raise ShapeError(f"linear expects a 2-d or 3-d input, a 2-d weight and a bias of its width, "
                         f"got {x.shape}, {w.shape} and {bias.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: inner dimensions differ, {x.shape} @ {w.shape}")
    data = x.data @ w.data + bias.data
    backward = partial(_linear_backward, x._node, w._node, bias._node, x.data, w.data)
    return Tensor._result(data, (x, w, bias), backward, "linear")


def _attention_scores_backward(nq, nk, q, k, factor, grad, grads):
    g = grad * factor
    if nq.requires_grad:
        grads(nq, g @ k)
    if nk.requires_grad:
        grads(nk, np.swapaxes(np.swapaxes(q, -1, -2) @ g, -1, -2))


def attention_scores(q, k, scale: float) -> Tensor:
    """`(q @ kᵀ) * scale` for [S, T, d] queries and keys, as one node: the
    `transpose`, `matmul` and `mul` chain's NumPy calls, with `kᵀ` the strided
    `np.swapaxes` view and `scale` cast to the queries' dtype, without keeping
    the product before the scale."""
    q, k = as_tensor(q), as_tensor(k)
    if q.ndim != 3 or k.ndim != 3 or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise ShapeError(f"attention_scores expects [S, T, d] queries and keys, got {q.shape} and {k.shape}")
    kt = np.swapaxes(k.data, -1, -2)
    factor = np.asarray(scale, dtype=q.data.dtype)
    data = (q.data @ kt) * factor
    backward = partial(_attention_scores_backward, q._node, k._node, q.data, k.data, factor)
    return Tensor._result(data, (q, k), backward, "attention_scores")


def _transpose_backward(na, grad, grads):
    grads(na, np.swapaxes(grad, -1, -2))


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose needs >= 2 axes, got shape {a.shape}")
    data = np.swapaxes(a.data, -1, -2)
    return Tensor._result(data, (a,), partial(_transpose_backward, a._node), "transpose")


def _reshape_backward(na, grad, grads):
    grads(na, grad.reshape(na.shape))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)
    return Tensor._result(data, (a,), partial(_reshape_backward, a._node), "reshape")


def _regroup(a: np.ndarray, four_axes: tuple, out_shape: tuple) -> np.ndarray:
    """`a` as `four_axes`, axes 1 and 2 swapped into a C-contiguous copy, as `out_shape`.

    The copy fixes the memory order of the result, and with it the order of
    every later sum over it."""
    return np.ascontiguousarray(np.transpose(a.reshape(four_axes), (0, 2, 1, 3))).reshape(out_shape)


def _regroup_backward(na, four_axes, grad, grads):
    """Hands back `grad` regrouped to `na`'s shape, `four_axes` being `grad`'s own shape as four axes."""
    grads(na, _regroup(grad, four_axes, na.shape))


def split_heads(y, heads: int) -> Tensor:
    """[B, T, D] -> [B*H, T, D/H]: row b*H + h holds slot b's columns h*D/H .. (h+1)*D/H.

    Value and gradient are C-contiguous copies."""
    y = as_tensor(y)
    if y.ndim != 3 or heads < 1 or y.shape[2] % heads:
        raise ShapeError(f"split_heads: {heads} heads do not split the last axis of shape {y.shape}")
    b, t, d = y.shape
    dh = d // heads
    data = _regroup(y.data, (b, t, heads, dh), (b * heads, t, dh))
    return Tensor._result(data, (y,), partial(_regroup_backward, y._node, (b, heads, t, dh)), "split_heads")


def merge_heads(y, batch: int) -> Tensor:
    """[B*H, T, d_h] -> [B, T, H*d_h], the inverse of `split_heads`.

    Value and gradient are C-contiguous copies."""
    y = as_tensor(y)
    if y.ndim != 3 or batch < 1 or y.shape[0] % batch:
        raise ShapeError(f"merge_heads: a batch of {batch} does not split the leading axis of shape {y.shape}")
    bh, t, dh = y.shape
    heads = bh // batch
    data = _regroup(y.data, (batch, heads, t, dh), (batch, t, heads * dh))
    return Tensor._result(data, (y,), partial(_regroup_backward, y._node, (batch, t, heads, dh)), "merge_heads")


def _concat_backward(nodes, axis, grad, grads):
    start = 0
    for node in nodes:
        size = node.shape[axis]
        index = [slice(None)] * grad.ndim
        index[axis] = slice(start, start + size)
        grads(node, grad[tuple(index)])
        start += size


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    backward = partial(_concat_backward, tuple(t._node for t in tensors), axis)
    return Tensor._result(data, tuple(tensors), backward, "concat")


def _unbroadcast_backward(na, grad, grads):
    grads(na, _unbroadcast(grad, na.shape))


def broadcast_to(a, shape) -> Tensor:
    """`a` repeated over new leading axes (or along its size-1 axes) as a read-only view."""
    a = as_tensor(a)
    data = np.broadcast_to(a.data, shape)
    return Tensor._result(data, (a,), partial(_unbroadcast_backward, a._node), "broadcast_to")


def _scatter_backward(na, dtype, strided, key, grad, grads):
    """Hands back `grad` added at `key` into zeros of `na`'s shape. The zeros
    take the memory order of `strided`, the input when it was not C-ordered
    (None otherwise), since that order fixes the order of later sums over them."""
    full = np.zeros(na.shape, dtype) if strided is None else np.zeros_like(strided)
    np.add.at(full, key, grad)
    grads(na, full)


def tensor_slice(a, key) -> Tensor:
    """`a[key]` as a C-contiguous copy, which does not keep `a`'s array alive."""
    a = as_tensor(a)
    data = np.array(a.data[key], order="C")
    strided = None if a.data.flags.c_contiguous else a.data
    backward = partial(_scatter_backward, a._node, a.data.dtype, strided, key)
    return Tensor._result(data, (a,), backward, "slice")


def embedding_row_select(table, indices) -> Tensor:
    """Rows of a 2-d table by integer index; duplicate rows accumulate grads."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"embedding_row_select expects a 2-d table, got {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= table.shape[0]):
        raise ShapeError(f"row index out of range for table with {table.shape[0]} rows")
    data = table.data[idx]
    strided = None if table.data.flags.c_contiguous else table.data
    backward = partial(_scatter_backward, table._node, table.data.dtype, strided, idx)
    return Tensor._result(data, (table,), backward, "embedding_row_select")


def _softmax_backward(na, out, grad, grads):
    dot = (grad * out).sum(axis=-1, keepdims=True)
    grads(na, (grad - dot) * out)


def softmax(a) -> Tensor:
    """Softmax over the last axis, numerically stabilized."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    return Tensor._result(data, (a,), partial(_softmax_backward, a._node, data), "softmax")


def _layer_norm_backward(na, ngain, nbias, gain, xhat, inv_std, grad, grads):
    d = xhat.shape[-1]
    dxhat = grad * gain
    # Standard closed form: dx = inv_std/d * (d*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
    sum_dxhat = dxhat.sum(axis=-1, keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=-1, keepdims=True)
    grads(na, (inv_std / d) * (d * dxhat - sum_dxhat - xhat * sum_dxhat_xhat))
    grads(ngain, _unbroadcast(grad * xhat, ngain.shape))
    grads(nbias, _unbroadcast(grad, nbias.shape))


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean/unit variance, then scale and shift."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    data = xhat * gain.data + bias.data
    backward = partial(_layer_norm_backward, a._node, gain._node, bias._node, gain.data, xhat, inv_std)
    return Tensor._result(data, (a, gain, bias), backward, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_erf = np.frompyfunc(math.erf, 1, 1)


def _gelu_exact_backward(na, x, phi_cdf, grad, grads):
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    grads(na, grad * (phi_cdf + x * pdf))


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """`t = tanh(c * (x + 0.044715 * x * x * x))`, the forward's and the backward's own operations."""
    return np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))


def _gelu_tanh_backward(na, x, grad, grads):
    t = _gelu_tanh(x)
    dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
    grads(na, grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner))


def gelu(a, exact: bool = False) -> Tensor:
    """GELU: `x * Phi(x)` with erf when `exact`, else the tanh form
    `0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x)))`, c = sqrt(2 / pi).

    The cube is the product `(x * x) * x`. The tanh form's backward holds
    only `x` and recomputes `t = tanh(...)` from it with the forward's
    operations, so it reads the forward's bytes; the exact form's holds `x`
    and `Phi(x)`.
    """
    a = as_tensor(a)
    x = a.data
    if exact:
        phi_cdf = 0.5 * (1.0 + _erf(x / math.sqrt(2.0)).astype(x.dtype))
        data = x * phi_cdf
        backward = partial(_gelu_exact_backward, a._node, x, phi_cdf)
    else:
        data = 0.5 * x * (1.0 + _gelu_tanh(x))
        backward = partial(_gelu_tanh_backward, a._node, x)
    return Tensor._result(data, (a,), backward, "gelu")


def _sigmoid_backward(na, out, grad, grads):
    grads(na, grad * out * (1.0 - out))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return Tensor._result(data, (a,), partial(_sigmoid_backward, a._node, data), "sigmoid")


def _dropout_mask(kept: np.ndarray, keep: float, dtype) -> np.ndarray:
    """The scaled mask of inverted dropout from its boolean draw, `kept.astype(dtype) / keep`.

    A forward and its backward both build it with these two operations, so
    a graph keeps the one-byte `kept` instead of the mask. (The division
    runs in place: an elementwise operation rounds the same wherever it
    writes.)"""
    mask = kept.astype(dtype)
    mask /= keep
    return mask


def _draw_kept(a: Tensor, p: float, rng: list[np.random.Generator] | None, op: str) -> tuple[np.ndarray, float]:
    """Which units of `a` inverted dropout at rate `p` keeps, and the keep rate.

    `rng` holds one generator per slot: the leading axis is cut into that
    many equal slots, and each slot draws from its own generator, as it
    would alone."""
    if not (0.0 <= p < 1.0):
        raise ShapeError(f"{op} rate must be in [0, 1), got {p}")
    if rng is None:
        raise ShapeError(f"training-mode {op} requires a list of generators")
    if a.ndim == 0 or not rng or a.shape[0] % len(rng):
        raise ShapeError(f"{op}: {len(rng)} generators do not split the leading axis of shape {a.shape}")
    draws = np.empty(a.shape)
    rows = a.shape[0] // len(rng)
    for slot, gen in enumerate(rng):
        gen.random(out=draws[slot * rows : (slot + 1) * rows])
    keep = 1.0 - p
    return draws < keep, keep


def _dropout_backward(na, kept, keep, dtype, grad, grads):
    mask = _dropout_mask(kept, keep, dtype)
    grads(na, np.multiply(grad, mask, out=mask))


def dropout(a, p: float, rng: list[np.random.Generator] | None = None, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p); identity in eval mode.

    `rng` holds one generator per slot: the leading axis is cut into that
    many equal slots, and each slot draws its mask from its own generator, as
    it would alone. One generator for the whole array is a list of one. The
    graph keeps the boolean draw and rebuilds the mask in the backward.
    """
    a = as_tensor(a)
    if not training or p == 0.0:
        return a
    kept, keep = _draw_kept(a, p, rng, "dropout")
    dtype = a.data.dtype
    data = a.data * _dropout_mask(kept, keep, dtype)
    return Tensor._result(data, (a,), partial(_dropout_backward, a._node, kept, keep, dtype), "dropout")


def _dropout_matmul_backward(na, nb, a, kept, keep, b, grad, grads):
    mask = _dropout_mask(kept, keep, a.dtype)
    if na.requires_grad:
        da = grad @ np.swapaxes(b, -1, -2)
        da *= mask
        grads(na, da)
    if nb.requires_grad:
        dropped = np.multiply(a, mask, out=mask)
        grads(nb, _right_operand_grad(dropped, grad, shared=False))


def dropout_matmul(a, b, p: float, rng: list[np.random.Generator]) -> Tensor:
    """`dropout(a, p, rng) @ b` for [S, T, U] and [S, U, d] operands, as one node.

    Its forward runs `dropout`'s and `matmul`'s NumPy calls in their order
    and draws the same mask from the same generators. The graph keeps `a`,
    `b` and the boolean draw, not the mask or the dropped `a`: the backward
    rebuilds both with the forward's operations. It hands `a` the product
    `grad @ bᵀ` (`bᵀ` the strided `np.swapaxes` view) times the mask, and `b`
    the product of the dropped `a`, transposed, and `grad`: the bytes of
    `matmul`'s then `dropout`'s backwards. At the paper's attention shape,
    that strided `grad @ bᵀ` is one of the two products whose bytes depend
    on the BLAS thread count.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"dropout_matmul expects [S, T, U] and [S, U, d] operands, got {a.shape} @ {b.shape}")
    kept, keep = _draw_kept(a, p, rng, "dropout_matmul")
    data = (a.data * _dropout_mask(kept, keep, a.data.dtype)) @ b.data
    backward = partial(_dropout_matmul_backward, a._node, b._node, a.data, kept, keep, b.data)
    return Tensor._result(data, (a, b), backward, "dropout_matmul")


BCE_EPS = 1e-7


def _bce_backward(npred, p, t, inside, count, per_slot, grad, grads):
    dp = (p - t) / (p * (1.0 - p)) / count
    grads(npred, (grad[..., None] if per_slot else grad) * dp * inside)


def binary_cross_entropy(predictions, targets, per_slot: bool = False) -> Tensor:
    """Mean BCE over all elements, or with `per_slot` over the last axis only
    (one loss per slot); probabilities clamped to [1e-7, 1 - 1e-7]."""
    predictions = as_tensor(predictions)
    t = np.asarray(targets, dtype=predictions.data.dtype)
    if t.shape != predictions.shape:
        raise ShapeError(f"binary_cross_entropy: predictions {predictions.shape} vs targets {t.shape}")
    p = np.clip(predictions.data, BCE_EPS, 1.0 - BCE_EPS)
    data = np.asarray(-(t * np.log(p) + (1.0 - t) * np.log1p(-p)).mean(axis=-1 if per_slot else None))
    count = p.shape[-1] if per_slot else p.size
    inside = (predictions.data > BCE_EPS) & (predictions.data < 1.0 - BCE_EPS)
    backward = partial(_bce_backward, predictions._node, p, t, inside, count, per_slot)
    return Tensor._result(data, (predictions,), backward, "binary_cross_entropy")


# -- reverse pass -------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Node]:
    """The nodes of `root`'s graph that need a gradient, each after its parents."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        # Leaf parents go below the others, so a leaf is popped only after the
        # subgraphs of its consumer's other parents: it lands in `order` just
        # before its first consumer, and the reverse pass reaches it just after
        # its last consumer has run. Non-leaves keep their relative order.
        for parent in node._parents:
            if parent.requires_grad and parent._backward is None:
                stack.append((parent, False))
        for parent in node._parents:
            if parent._backward is not None:
                stack.append((parent, False))
    return order


def collect_gradients(loss: Tensor, wanted: dict[str, Tensor], into: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Reverse pass from `loss`: adds each wanted tensor's gradient into `into`, and returns `into`.

    `into` must hold, under every wanted name, an array of that tensor's
    shape and dtype; anything else is a ShapeError before the pass starts.
    `loss` is a scalar or a vector of per-slot losses; the pass is seeded
    with ones, so every slot's loss is differentiated as if it were alone.
    The pass walks the graph's nodes, which hold no values: the arrays it
    reads are the ones the nodes' backwards keep. Each intermediate
    gradient is dropped as soon as its node's backward has run, and each
    leaf gradient is added in place, `into[name] += g`, as soon as its last
    consumer has run (see `_topo_order`), so a pass holds one gradient set
    at most. A wanted tensor that no gradient reaches leaves its array as it
    was.
    """
    if loss.ndim > 1:
        raise ShapeError(f"backward needs a scalar or per-slot loss vector, got shape {loss.shape}")
    if not loss.requires_grad:
        raise NumericalError("loss is detached from any gradient-tracked input")
    for name, t in wanted.items():
        total = into.get(name)
        if not (isinstance(total, np.ndarray) and total.shape == t.shape and total.dtype == t.data.dtype):
            got = f"a {total.shape} {total.dtype} array" if isinstance(total, np.ndarray) else type(total).__name__
            raise ShapeError(f"collect_gradients: into[{name!r}] must be a {t.shape} {t.data.dtype} array, got {got}")
    root = loss._node
    if root._consumed:
        raise RuntimeError("backward already ran for this graph; run forward again first")
    root._consumed = True

    names = {id(t._node): name for name, t in wanted.items()}
    acc: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}

    def grads(t: Node, g: np.ndarray):
        if not t.requires_grad:
            return
        if g.shape != t.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {t.shape} ({t._op})")
        if id(t) in acc:
            acc[id(t)] = acc[id(t)] + g
        else:
            acc[id(t)] = g

    for node in reversed(_topo_order(loss)):
        g = acc.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            _check_finite(g, f"backward of {node._op}")
            node._backward(g, grads)
        elif id(node) in names:
            into[names[id(node)]] += g
    return into


# -- optimizer ----------------------------------------------------------------


def adam_init(params: dict[str, Tensor]) -> dict:
    """Adam's state for `params`, which this moves into one flat buffer.

    Each parameter's values are copied into a flat buffer of the parameters'
    shared dtype and its `Tensor.data` is rebound to its reshaped view of that
    buffer. The parameters move one at a time, before anything else is
    allocated, so the move holds two parameter sets at most. Adam's m and v
    and the step's gradient total then get zeroed flat buffers of the same
    layout. The state holds the four buffers under "flat" (parameters, m, v,
    gradient total), {name: view} dicts under "m", "v" and "grad", and the
    step count under "t".
    """
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) > 1:
        raise ShapeError(f"adam_init: parameters mix the dtypes {sorted(str(d) for d in dtypes)}")
    dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
    spans, size = {}, 0
    for name, p in params.items():
        spans[name] = (size, p.shape)
        size += p.data.size

    def views(flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[start : start + math.prod(shape)].reshape(shape) for name, (start, shape) in spans.items()}

    flat_params = np.empty(size, dtype)
    for name, view in views(flat_params).items():
        view[...] = params[name].data
        params[name].data = view  # the old array goes here, before the next one is copied
    flat = (flat_params, *(np.zeros_like(flat_params) for _ in range(3)))  # written now, not at the first step
    return {"flat": flat, "m": views(flat[1]), "v": views(flat[2]), "grad": views(flat[3]), "t": 0}


# Adam runs over flat blocks of this many elements, so its temporaries stay
# cache-sized instead of parameter-sized.
ADAM_BLOCK = 1 << 15


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: dict,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Bias-corrected Adam update of every parameter in `state`, in place.

    `params` are the tensors `adam_init` built `state` from, so their data
    are views of its flat parameter buffer. `grads` must be the state's own
    gradient views, `state["grad"]`, into which the step's reverse passes
    added their gradients; any other dict, or parameters under other names,
    is a ShapeError before anything changes. The flat gradient total is then
    checked once: a NaN or Inf raises NumericalError and leaves the
    parameters, m, v and t as they were. Then m, v and the parameters are
    overwritten block by block over the flat buffers with the textbook
    update's operations in its order, so the numbers are bitwise those of
    the allocating form m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr * (m/c1) / (sqrt(v/c2) + eps) applied to each tensor on its own.
    The update runs in the parameters' dtype; the hyperparameters are taken
    as Python floats.
    """
    lr, beta1, beta2, eps = float(lr), float(beta1), float(beta2), float(eps)
    views = state["grad"]
    if grads is not views:
        raise ShapeError("adam_step: the gradients must be the state's own total, state['grad']")
    if params.keys() != views.keys():
        raise ShapeError(f"adam_step: parameters {sorted(params)}, but the state holds {sorted(views)}")
    flat_params, flat_m, flat_v, flat_grad = state["flat"]
    # A sum is NaN or Inf when any term is, and needs no temporary; only a
    # sum that overflowed on finite terms needs the exact scan.
    if not math.isfinite(flat_grad.sum()) and not np.isfinite(flat_grad).all():
        bad = next(name for name, g in views.items() if not np.isfinite(g).all())
        raise NumericalError(f"adam_step: the gradient of {bad!r} is not finite")
    state["t"] += 1
    t = state["t"]
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for start in range(0, flat_params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        pb, mb, vb, gb = flat_params[block], flat_m[block], flat_v[block], flat_grad[block]
        tmp = np.multiply(gb, 1.0 - beta1)
        mb *= beta1
        mb += tmp
        np.multiply(gb, 1.0 - beta2, out=tmp)
        tmp *= gb
        vb *= beta2
        vb += tmp
        np.divide(vb, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        step = np.divide(mb, c1)
        step *= lr
        step /= tmp
        pb -= step
    return params, state


# -- checkpoint format ---------------------------------------------------------

CHECKPOINT_MAGIC = b"WFT1"


def save_checkpoint(path, named_arrays: dict[str, np.ndarray]):
    """Write arrays (cast to float32 little-endian) under the WFT1 layout."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(named_arrays)))
        for name, arr in named_arrays.items():
            data = np.ascontiguousarray(arr.data if isinstance(arr, Tensor) else arr)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.astype("<f4").tobytes(order="C"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a WFT1 file back into float64 arrays (exact float32 embedding).

    The file must start with the magic and hold exactly the tensors its count
    announces, each name once: a wrong magic, a short file, trailing bytes or
    a repeated name raise RecordFormatError. Every field is checked, the dims
    against the bytes left, before anything is allocated. The arrays are views
    of one float64 buffer, so a large checkpoint is one allocation of fresh
    memory, whose cost does not depend on what earlier work left on the heap.
    """
    with open(path, "rb") as fh:
        length = os.fstat(fh.fileno()).st_size
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise RecordFormatError(f"{path}: not a WFT1 checkpoint")
        pos = 4

        def take(size: int, what: str) -> bytes:
            """The next `size` bytes, which must all be in the file."""
            nonlocal pos
            data = fh.read(size) if size <= length - pos else b""
            if len(data) != size:
                raise RecordFormatError(f"{path}: WFT1 checkpoint truncated in {what} at byte {pos}")
            pos += size
            return data

        (count,) = struct.unpack("<I", take(4, "the tensor count"))
        layout: dict[str, tuple[tuple[int, ...], int]] = {}  # name -> (shape, file offset of its data)
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "a name length"))
            start = pos
            try:
                name = take(name_len, "a name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise RecordFormatError(f"{path}: WFT1 tensor name at byte {start} is not UTF-8") from exc
            if name in layout:
                raise RecordFormatError(f"{path}: WFT1 tensor {name!r} appears twice")
            (ndims,) = struct.unpack("<B", take(1, f"the rank of {name!r}"))
            shape = struct.unpack(f"<{ndims}I", take(4 * ndims, f"the dims of {name!r}"))
            nbytes = 4 * math.prod(shape)
            if nbytes > length - pos:
                raise RecordFormatError(f"{path}: WFT1 checkpoint truncated in the data of {name!r} at byte {pos}")
            layout[name] = (shape, pos)
            pos = fh.seek(nbytes, os.SEEK_CUR)
        if pos != length:
            raise RecordFormatError(f"{path}: {length - pos} trailing bytes after the last WFT1 tensor")

        sizes = [math.prod(shape) for shape, _ in layout.values()]
        flat = np.empty(sum(sizes))
        scratch = np.empty(max(sizes, default=0), dtype="<f4")
        out: dict[str, np.ndarray] = {}
        at = 0
        for (name, (shape, offset)), size in zip(layout.items(), sizes):
            fh.seek(offset)
            if fh.readinto(scratch[:size]) != 4 * size:
                raise RecordFormatError(f"{path}: WFT1 checkpoint truncated in the data of {name!r}")
            flat[at : at + size] = scratch[:size]
            out[name] = flat[at : at + size].reshape(shape)
            at += size
    return out
