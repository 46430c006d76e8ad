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
output that no backward reads (a projection before the head split, a
residual sum) is freed as soon as the caller drops it. `collect_gradients`
walks the nodes once in reverse topological order, accumulating gradients
additively across fan-out and dropping each one as soon as nothing left in
the pass needs it. There is one way to run backward: each pass adds every
wanted leaf's gradient in place into a gradient total the caller owns and
zeroes, as soon as the leaf's last gradient is handed over. Tensors are
float64 unless built with another dtype (float32 training runs on float32
parameters); gradient checks always run in float64. `matmul` takes 2-d
operands, 3-d operands batched over a shared leading axis, or a 3-d operand
times a shared 2-d matrix; a backward skips the product for any operand
that needs no gradient. No array power goes through NumPy's general `pow`,
which is many times slower than a product: `gelu` (tanh form) cubes as
`x * x * x`, and squares are `x**2`, which NumPy computes as `x * x`.

A graph's cost at small sizes is per node (each node's output and incoming
gradient get one finiteness scan), so the model runs as fused nodes:
`patch_embedding` (the patch projection, the class token's broadcast and
concat, the positional add and its dropout), the encoder's two pre-norm
sublayers, `attention_sublayer` (`x + dropout(linear(attention(q, k, v)))`
with q, k and v the projections of `layer_norm(x)`, the attention being the
head split, the scaled scores `q @ kᵀ`, the key mask, the softmax, the map's
dropout, the product with the values and the head merge) and
`feed_forward_sublayer` (`x + dropout(linear(gelu(linear(layer_norm(x)))))`),
and `classifier_head` (the final norm, the class token's row, fc1, GELU,
dropout, the concat with the wide features, fc2, the reshape and the
sigmoid). Each runs the NumPy calls of the chain of ops it replaces, in the
same order and on the same arrays, so it gives the chain's bytes; keeps no
more than the chain's backwards keep; and scans its output once
(`attention_sublayer` also scans its scores before the softmax, which would
turn -inf scores into finite weights; `classifier_head` scans its norm's
output, of which it reads one row, and its logits instead of the sigmoid's
output, which is finite for an infinite logit). The standalone ops and the
fused nodes share their arithmetic through array-level functions
(`_affine`, `_layer_norm_value`, `_gelu_value`, `_attention_value`,
`_sigmoid_value`, their gradients and the dropout draw), so each formula is
written once. Sums, means and maxima are called as `np.add.reduce`,
`np.true_divide` by the count and `np.maximum.reduce`, the bytes of the
`.sum`, `.mean` and `.max` methods without their Python wrappers. Of the
standalone ops the model calls only the loss, `binary_cross_entropy`. The
others are the pieces of the tests' chains of ops, against which the fused
nodes are checked bitwise, and `ecgbench/tracer.py` traces all of them but
`linear` and `broadcast_to`.

A training forward's dropout sites draw from one `SlotDraws`, one
generator per slot, which draws each run of small sites' doubles in one
call per slot; an op also takes a plain list of generators.

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

def _check_finite(data: np.ndarray, op):
    """A NumericalError naming `op` unless `data` is finite. `op` is an op's name, or the node whose
    incoming gradient `data` is, named "backward of <op>" only when the scan fails."""
    if not np.isfinite(data).all():
        raise NumericalError(f"{op if isinstance(op, str) else 'backward of ' + op._op} produced non-finite values")


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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or np.float64)
        _check_finite(self.data, "leaf")
        self._node = Node(bool(requires_grad), self.data.shape, (), None, "leaf")

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
        return Tensor._result(self.data, (), None, "leaf", scanned=True)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward, op, scanned: bool = False):
        """A new tensor over `data`, recording `backward` under the nodes of the
        tensors in `parents` when any of them needs a gradient. `backward(grad,
        grads)` hands each parent's gradient to `grads(node, g)`, the parent
        given as its node, so the backward need not keep the parent's tensor.
        `data` is scanned unless the caller has `scanned` what makes it finite."""
        if not scanned:
            _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        nodes = tuple([p._node for p in parents])
        for node in nodes:
            if node.requires_grad:
                out._node = Node(True, data.shape, nodes, backward, op)
                return out
        out._node = Node(False, data.shape, (), None, op)
        return out


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
        grad = np.add.reduce(grad, axis=1)
    for axis, size in enumerate(shape, start=slots):
        if size == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return np.add.reduce(grad, axis=0) if slots else grad


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


def _left_operand_grad(grad: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The gradient of `a` in `a @ b`."""
    return grad @ np.swapaxes(b, -1, -2)


def _matmul_backward(na, nb, a, b, grad, grads):
    if na.requires_grad:
        grads(na, _left_operand_grad(grad, b))
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
    return np.add.reduce(np.swapaxes(a, -1, -2) @ grad, axis=0)


def _affine(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """`x @ w + bias`, the value of `linear`."""
    return x @ w + bias


def _linear_grads(nw, nbias, x, w, grad, grads, to_input: bool):
    """Hands the weight and the bias of `x @ w + bias` their gradients, when they need one, and returns the
    gradient of `x` when `to_input` (else None)."""
    if nw.requires_grad:
        grads(nw, _right_operand_grad(x, grad, shared=x.ndim == 3))
    if nbias.requires_grad:
        grads(nbias, _unbroadcast(grad, nbias.shape))
    return _left_operand_grad(grad, w) if to_input else None


def _linear_backward(nx, nw, nbias, x, w, grad, grads):
    g = _linear_grads(nw, nbias, x, w, grad, grads, nx.requires_grad)
    if g is not None:
        grads(nx, g)


def _check_linear(x: Tensor, w: Tensor, bias: Tensor, op: str):
    if x.ndim not in (2, 3) or w.ndim != 2 or bias.shape != w.shape[1:]:
        raise ShapeError(f"{op} expects a 2-d or 3-d input, a 2-d weight and a bias of its width, "
                         f"got {x.shape}, {w.shape} and {bias.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"{op}: inner dimensions differ, {x.shape} @ {w.shape}")


def linear(x, w, bias) -> Tensor:
    """`x @ w + bias` as one node: the `matmul` and `add` chain's NumPy calls,
    without keeping the product before the bias. `x` is 2-d, or 3-d with one
    slot per index of axis 0; `w` is a 2-d matrix shared by every slot and
    `bias` a vector of its width."""
    x, w, bias = as_tensor(x), as_tensor(w), as_tensor(bias)
    _check_linear(x, w, bias, "linear")
    data = _affine(x.data, w.data, bias.data)
    backward = partial(_linear_backward, x._node, w._node, bias._node, x.data, w.data)
    return Tensor._result(data, (x, w, bias), backward, "linear")


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


def _softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, shifted by the row maximum, into `out` (which may be `x`) when given."""
    shifted = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=out)
    e = np.exp(shifted, out=shifted)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _softmax_grad(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The gradient of a softmax's input from its output's gradient and the output."""
    return (grad - np.add.reduce(grad * out, axis=-1, keepdims=True)) * out


def _softmax_backward(na, out, grad, grads):
    grads(na, _softmax_grad(grad, out))


def softmax(a) -> Tensor:
    """Softmax over the last axis, numerically stabilized."""
    a = as_tensor(a)
    data = _softmax(a.data)
    return Tensor._result(data, (a,), partial(_softmax_backward, a._node, data), "softmax")


def _mean_last_axis(x: np.ndarray) -> np.ndarray:
    """`x.mean(axis=-1, keepdims=True)` as NumPy computes it: the sum, divided in place by the intp count."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(x.shape[-1]), out=total, casting="unsafe")


def _layer_norm_value(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """`layer_norm`'s output, its normalized input and its inverse deviation."""
    mu = _mean_last_axis(x)
    centered = x - mu
    var = _mean_last_axis(centered**2)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * gain + bias, xhat, inv_std


def _layer_norm_backward(na, ngain, nbias, gain, xhat, inv_std, grad, grads):
    d = xhat.shape[-1]
    dxhat = grad * gain
    # Standard closed form: dx = inv_std/d * (d*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
    sum_dxhat = np.add.reduce(dxhat, axis=-1, keepdims=True)
    sum_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
    grads(na, (inv_std / d) * (d * dxhat - sum_dxhat - xhat * sum_dxhat_xhat))
    grads(ngain, _unbroadcast(grad * xhat, ngain.shape))
    grads(nbias, _unbroadcast(grad, nbias.shape))


def _check_norm(a: Tensor, gain: Tensor, bias: Tensor, op: str):
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"{op} gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean/unit variance, then scale and shift."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    _check_norm(a, gain, bias, "layer_norm")
    data, xhat, inv_std = _layer_norm_value(a.data, gain.data, bias.data, eps)
    backward = partial(_layer_norm_backward, a._node, gain._node, bias._node, gain.data, xhat, inv_std)
    return Tensor._result(data, (a, gain, bias), backward, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_erf = np.frompyfunc(math.erf, 1, 1)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """`t = tanh(c * (x + 0.044715 * x * x * x))`, the forward's and the backward's own operations."""
    return np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))


def _gelu_value(x: np.ndarray, exact: bool):
    """GELU of `x`, and the `Phi(x)` the exact form's backward keeps (None for the tanh form)."""
    if exact:
        phi_cdf = 0.5 * (1.0 + _erf(x / math.sqrt(2.0)).astype(x.dtype))
        return x * phi_cdf, phi_cdf
    return 0.5 * x * (1.0 + _gelu_tanh(x)), None


def _gelu_grad(x: np.ndarray, phi_cdf: np.ndarray | None, grad: np.ndarray) -> np.ndarray:
    """The gradient of GELU's input `x`: the exact form's from its `Phi(x)`, the tanh form's from `x` alone."""
    if phi_cdf is not None:
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return grad * (phi_cdf + x * pdf)
    t = _gelu_tanh(x)
    dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
    return grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner)


def _gelu_backward(na, x, phi_cdf, grad, grads):
    grads(na, _gelu_grad(x, phi_cdf, grad))


def gelu(a, exact: bool = False) -> Tensor:
    """GELU: `x * Phi(x)` with erf when `exact`, else the tanh form
    `0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x)))`, c = sqrt(2 / pi).

    The cube is the product `(x * x) * x`. The tanh form's backward holds
    only `x` and recomputes `t = tanh(...)` from it with the forward's
    operations, so it reads the forward's bytes; the exact form's holds `x`
    and `Phi(x)`.
    """
    a = as_tensor(a)
    data, phi_cdf = _gelu_value(a.data, exact)
    return Tensor._result(data, (a,), partial(_gelu_backward, a._node, a.data, phi_cdf), "gelu")


def _sigmoid_backward(na, out, grad, grads):
    grads(na, grad * out * (1.0 - out))


def _sigmoid_value(x: np.ndarray) -> np.ndarray:
    """The logistic function of `x`, finite wherever `x` is."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = _sigmoid_value(a.data)
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


def _uniforms(shape: tuple, generators: list[np.random.Generator]) -> np.ndarray:
    """Uniform doubles of `shape`, its leading axis cut into one equal slot per generator, each slot drawn from
    its own."""
    draws = np.empty(shape)
    rows = shape[0] // len(generators)
    for slot, gen in enumerate(generators):
        gen.random(out=draws[slot * rows : (slot + 1) * rows])
    return draws


# The most doubles per slot that the dropout sites of a forward draw ahead of time.
DRAW_BUFFER = 1 << 12


class SlotDraws:
    """A forward's dropout draws from one generator per slot, for sites that draw in a known order.

    `sizes` lists how many doubles each site takes from each slot, in the
    order the sites draw (a site at rate 0 takes none and is not listed). A
    run of consecutive sites that take at most `DRAW_BUFFER` doubles per slot
    together is drawn when its first site draws, by one `Generator.random`
    call per slot, and its sites read the buffer in turn; a larger site draws
    directly, as a list of generators does. A generator's doubles are
    consecutive words of its stream, so every site gets the doubles it would
    draw on its own, and the generators end where per-site draws leave them.
    """

    def __init__(self, generators: list[np.random.Generator], sizes: list[int]):
        self.generators = generators
        self._sizes = sizes
        self._site = 0
        self._buffer, self._at = None, 0

    def __len__(self) -> int:
        return len(self.generators)

    def draw(self, shape: tuple) -> np.ndarray:
        """The next site's uniforms: an array of `shape`, or its [slots, doubles per slot] equivalent."""
        size, sizes = math.prod(shape) // len(self.generators), self._sizes
        if self._site == len(sizes) or sizes[self._site] != size:
            raise ShapeError(f"dropout site {self._site} takes {size} draws per slot, which the forward's sites "
                             f"{sizes} do not list there")
        if self._buffer is None:
            end, total = self._site, 0
            while end < len(sizes) and total + sizes[end] <= DRAW_BUFFER:
                total += sizes[end]
                end += 1
            if not total:
                self._site += 1
                return _uniforms(shape, self.generators)
            self._buffer, self._at = np.empty((len(self.generators), total)), 0
            for row, gen in zip(self._buffer, self.generators):
                gen.random(out=row)
        self._site += 1
        draws = self._buffer[:, self._at : self._at + size]
        self._at += size
        if self._at == self._buffer.shape[1]:
            self._buffer = None
        return draws


def _draw_kept(shape: tuple, p: float, rng: list[np.random.Generator] | SlotDraws | None,
               op: str) -> tuple[np.ndarray, float]:
    """Which units of an array of `shape` inverted dropout at rate `p` keeps, and the keep rate.

    `rng` holds one generator per slot, as a list or a forward's `SlotDraws`:
    the leading axis is cut into that many equal slots, and each slot draws
    from its own generator, as it would alone."""
    if not (0.0 <= p < 1.0):
        raise ShapeError(f"{op} rate must be in [0, 1), got {p}")
    if rng is None:
        raise ShapeError(f"training-mode {op} requires a list of generators")
    if not shape or not len(rng) or shape[0] % len(rng):
        raise ShapeError(f"{op}: {len(rng)} generators do not split the leading axis of shape {shape}")
    draw = getattr(rng, "draw", None)
    draws = _uniforms(shape, rng) if draw is None else draw(shape)
    keep = 1.0 - p
    return (draws < keep).reshape(shape), keep


def _dropout_value(x: np.ndarray, p: float, rng: list[np.random.Generator] | None, op: str):
    """Inverted dropout of `x` at rate `p` (none at 0): the dropped array, and the boolean draw, keep rate
    and dtype that its backward rebuilds the mask from (None at rate 0)."""
    if not p:
        return x, None
    kept, keep = _draw_kept(x.shape, p, rng, op)
    return x * _dropout_mask(kept, keep, x.dtype), (kept, keep, x.dtype)


def _dropout_grad(kept: np.ndarray, keep: float, dtype, grad: np.ndarray) -> np.ndarray:
    """The gradient of a dropout's input, through the mask rebuilt from its draw."""
    mask = _dropout_mask(kept, keep, dtype)
    return np.multiply(grad, mask, out=mask)


def _dropout_backward(na, kept, keep, dtype, grad, grads):
    grads(na, _dropout_grad(kept, keep, dtype, grad))


def dropout(a, p: float, rng: list[np.random.Generator] | None = None) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p); at rate 0 (as in eval mode) `a` itself.

    `rng` holds one generator per slot: the leading axis is cut into that
    many equal slots, and each slot draws its mask from its own generator, as
    it would alone. One generator for the whole array is a list of one. The
    graph keeps the boolean draw and rebuilds the mask in the backward.
    """
    a = as_tensor(a)
    if p == 0.0:
        return a
    data, drop = _dropout_value(a.data, p, rng, "dropout")
    return Tensor._result(data, (a,), partial(_dropout_backward, a._node, *drop), "dropout")


def _regroup(a: np.ndarray, four_axes: tuple, out_shape: tuple) -> np.ndarray:
    """`a` as `four_axes`, axes 1 and 2 swapped into a C-contiguous copy, as `out_shape`.

    The copy fixes the memory order of the result, and with it the order of
    every later sum over it."""
    return np.ascontiguousarray(np.transpose(a.reshape(four_axes), (0, 2, 1, 3))).reshape(out_shape)


def _check_heads(shape: tuple, heads: int, key_mask: np.ndarray | None):
    """A ShapeError unless `shape` is [B, T, D] with `heads` dividing D and `key_mask`, if any, is [B, T]."""
    if len(shape) != 3 or heads < 1 or shape[2] % heads:
        raise ShapeError(f"attention_sublayer expects [B, T, D] inputs with {heads} heads dividing D, got {shape}")
    if key_mask is not None and np.shape(key_mask) != shape[:2]:
        raise ShapeError(f"attention_sublayer: a key mask of shape {np.shape(key_mask)} for inputs of shape {shape}")


def _attention_value(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, key_mask, p: float, rng, maps):
    """Multi-head scaled dot-product self-attention of [B, T, D] projections, and what its backward keeps: the
    three regrouped projections, the softmax output, the boolean draw (None at rate 0), the keep rate and the
    score scale.

    Each projection is regrouped to [B*H, T, D/H] (row b*H + h holds slot b's
    columns h*D/H .. (h+1)*D/H, as a C-contiguous copy); the scores `q @ kᵀ`
    (`kᵀ` the strided `np.swapaxes` view) are scaled by 1/sqrt(D/H) in the
    inputs' dtype; with a [B, T] boolean `key_mask`, -1e30 is added to the
    scores of masked keys; the scores are scanned (a softmax maps -inf scores
    to finite weights), softmaxed over keys and, with a rate `p` > 0,
    dropped out, each slot drawing from its own generator in `rng`; the
    product with the values is merged back to [B, T, D]. `maps`, when given,
    receives a [B, H, T, T] copy of the softmax output. At the paper's shape,
    `q @ kᵀ` and the map gradient's `grad @ vᵀ` are the two products whose
    bytes depend on the BLAS thread count."""
    b, t, d = q.shape
    dh = d // heads
    qh, kh, vh = (_regroup(y, (b, t, heads, dh), (b * heads, t, dh)) for y in (q, k, v))
    factor = qh.dtype.type(1.0 / math.sqrt(dh))
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores *= factor
    if key_mask is not None:
        scores += np.repeat(np.where(key_mask, 0.0, -1e30)[:, None, :], heads, axis=0).astype(qh.dtype)
    _check_finite(scores, "attention_sublayer")
    probs = _softmax(scores, out=scores)
    if maps is not None:
        maps.append(probs.reshape(b, heads, t, t).copy())
    kept, keep = _draw_kept((b, heads * t, t), p, rng, "attention_sublayer") if p else (None, 1.0)
    if kept is None:
        heads_out = probs @ vh
    else:
        kept = kept.reshape(probs.shape)
        heads_out = (probs * _dropout_mask(kept, keep, probs.dtype)) @ vh
    data = _regroup(heads_out, (b, heads, t, dh), (b, t, d))
    return data, (qh, kh, vh, probs, kept, keep, factor)


def _attention_grads(wanted: tuple, q, k, v, probs, kept, keep, factor, grad):
    """The gradients of the three projections of an attention, as a list (None for those not `wanted`, three flags):
    the backwards of the head merge, the value product (after the dropout, when there was one), the
    softmax, the bias add (the identity), the scaled scores and the three head splits, in that order."""
    want_q, want_k, want_v = wanted
    s, t, dh = q.shape
    b = grad.shape[0]
    heads_axes = (b, s // b, t, dh)  # a head gradient's four axes, regrouped back to [B, T, D]
    g = _regroup(grad, (b, t, s // b, dh), q.shape)
    mask = None if kept is None else _dropout_mask(kept, keep, probs.dtype)
    gq = gk = gv = None
    if want_q or want_k:
        dprobs = g @ np.swapaxes(v, -1, -2)
        if mask is not None:
            dprobs *= mask
        dscores = _softmax_grad(dprobs, probs) * factor
        if want_q:
            gq = _regroup(dscores @ k, heads_axes, grad.shape)
        if want_k:
            gk = _regroup(np.swapaxes(np.swapaxes(q, -1, -2) @ dscores, -1, -2), heads_axes, grad.shape)
    if want_v:
        dropped = probs if mask is None else np.multiply(probs, mask, out=mask)
        gv = _regroup(np.swapaxes(dropped, -1, -2) @ g, heads_axes, grad.shape)
    return [gq, gk, gv]


# -- the encoder's two pre-norm sublayers, one node each ------------------------


def _attention_sublayer_backward(nodes, gain, xhat, inv_std, pre, w_qkv, kept_attention, merged, w_o, drop, grad,
                                 grads):
    """The backwards of the residual add, the dropout, the output projection, the attention, the q, k and v
    projections and the norm, in that order; the norm output's three gradients are summed q, then k, then v."""
    nx, ngain, nbias, nwq, nbq, nwk, nbk, nwv, nbv, nwo, nbo = nodes
    grads(nx, grad)
    to_pre = nx.requires_grad or ngain.requires_grad or nbias.requires_grad
    projections = ((nwq, nbq), (nwk, nbk), (nwv, nbv))
    wanted = tuple([to_pre or nw.requires_grad or nb.requires_grad for nw, nb in projections])
    # Each stage's gradient is dropped once the next one is computed, as the chain's reverse pass drops it.
    g = grad if drop is None else _dropout_grad(*drop, grad)
    g = _linear_grads(nwo, nbo, merged, w_o, g, grads, any(wanted))
    if g is None:
        return
    g_heads = _attention_grads(wanted, *kept_attention, g)
    g = None
    for w, (nw, nb) in zip(w_qkv, projections):
        g_in = _linear_grads(nw, nb, pre, w, g_heads.pop(0), grads, to_pre)
        if g_in is not None:
            g = g_in if g is None else g + g_in
        del g_in
    if g is not None:
        _layer_norm_backward(nx, ngain, nbias, gain, xhat, inv_std, g, grads)


def attention_sublayer(x, gain, bias, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o, heads: int,
                       key_mask: np.ndarray | None = None, p: float = 0.0,
                       rng: list[np.random.Generator] | None = None, maps: list | None = None,
                       eps: float = 1e-5) -> Tensor:
    """A pre-norm self-attention sublayer of a [B, T, D] input as one node:
    `x + dropout(linear(attention(q, k, v), w_o, b_o))`, where q, k and v are
    the `linear` projections of `layer_norm(x, gain, bias)` and `attention` is
    the `heads`-head attention of `_attention_value`.

    The forward runs the NumPy calls of that chain of ops (the attention as
    its head splits, scores, mask, softmax, dropout, value product and head
    merge) in their order and on the same arrays, so it gives the chain's
    bytes; with a rate `p` > 0 the attention map draws its dropout before the
    output does, each from the slots' generators in `rng`. The backward runs
    the chain's backwards in reverse and sums the norm output's three
    gradients q, then k, then v, as the chain's reverse pass does. The graph
    keeps the norm's gain, normalized input and inverse deviation, its output,
    the four weights, the attention's regrouped projections, softmax output and
    draw, the merged heads and the output's draw. It scans the attention scores
    before the softmax and its output, and the reverse pass scans its incoming
    gradient; the arrays in between are not scanned.
    """
    tensors = tuple([as_tensor(t) for t in (x, gain, bias, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o)])
    x, gain, bias, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o = tensors
    op = "attention_sublayer"
    _check_heads(x.shape, heads, key_mask)
    _check_norm(x, gain, bias, op)
    for w, b in ((w_q, b_q), (w_k, b_k), (w_v, b_v), (w_o, b_o)):
        _check_linear(x, w, b, op)
        if w.shape[1] != x.shape[2]:
            raise ShapeError(f"{op}: a projection of width {w.shape[1]} for an input of width {x.shape[2]}")
    pre, xhat, inv_std = _layer_norm_value(x.data, gain.data, bias.data, eps)
    q, k, v = (_affine(pre, w.data, b.data) for w, b in ((w_q, b_q), (w_k, b_k), (w_v, b_v)))
    merged, kept_attention = _attention_value(q, k, v, heads, key_mask, p, rng, maps)
    out, drop = _dropout_value(_affine(merged, w_o.data, b_o.data), p, rng, op)
    data = x.data + out
    backward = partial(_attention_sublayer_backward, tuple([t._node for t in tensors]), gain.data, xhat, inv_std,
                       pre, (w_q.data, w_k.data, w_v.data), kept_attention, merged, w_o.data, drop)
    return Tensor._result(data, tensors, backward, op)


def _feed_forward_sublayer_backward(nodes, gain, xhat, inv_std, pre, w1, hidden, phi_cdf, act, w2, drop, grad, grads):
    """The backwards of the residual add, the dropout, the second linear, the GELU, the first linear and the
    norm, in that order."""
    nx, ngain, nbias, nw1, nb1, nw2, nb2 = nodes
    grads(nx, grad)
    to_pre = nx.requires_grad or ngain.requires_grad or nbias.requires_grad
    # Each stage's gradient is dropped once the next one is computed, as the chain's reverse pass drops it.
    g = grad if drop is None else _dropout_grad(*drop, grad)
    g = _linear_grads(nw2, nb2, act, w2, g, grads, to_pre or nw1.requires_grad or nb1.requires_grad)
    if g is None:
        return
    g = _gelu_grad(hidden, phi_cdf, g)
    g = _linear_grads(nw1, nb1, pre, w1, g, grads, to_pre)
    if g is not None:
        _layer_norm_backward(nx, ngain, nbias, gain, xhat, inv_std, g, grads)


def feed_forward_sublayer(x, gain, bias, w1, b1, w2, b2, p: float = 0.0,
                          rng: list[np.random.Generator] | None = None, exact: bool = False,
                          eps: float = 1e-5) -> Tensor:
    """A pre-norm feed-forward sublayer of a [B, T, D] input as one node:
    `x + dropout(linear(gelu(linear(layer_norm(x, gain, bias), w1, b1)), w2, b2))`.

    The forward runs the NumPy calls of that chain of nodes in their order and
    on the same arrays, so it gives the chain's bytes; `exact` picks GELU's
    erf form, and a rate `p` > 0 draws the output's dropout from the slots'
    generators in `rng`. The graph keeps what the chain's backwards keep: the
    norm's gain, normalized input and inverse deviation, its output, both
    weights, the hidden layer (GELU's input; the exact form also keeps its
    `Phi`), GELU's output and the draw. It scans its output, and the reverse
    pass scans its incoming gradient; the arrays in between are not scanned.
    """
    tensors = tuple([as_tensor(t) for t in (x, gain, bias, w1, b1, w2, b2)])
    x, gain, bias, w1, b1, w2, b2 = tensors
    op = "feed_forward_sublayer"
    if x.ndim != 3:
        raise ShapeError(f"{op} expects a [B, T, D] input, got {x.shape}")
    _check_norm(x, gain, bias, op)
    _check_linear(x, w1, b1, op)
    if w2.shape != (w1.shape[1], x.shape[2]) or b2.shape != x.shape[2:]:
        raise ShapeError(f"{op}: a second weight {w2.shape} and bias {b2.shape} after a first weight {w1.shape}, "
                         f"for an input of width {x.shape[2]}")
    pre, xhat, inv_std = _layer_norm_value(x.data, gain.data, bias.data, eps)
    hidden = _affine(pre, w1.data, b1.data)
    act, phi_cdf = _gelu_value(hidden, exact)
    out, drop = _dropout_value(_affine(act, w2.data, b2.data), p, rng, op)
    data = x.data + out
    backward = partial(_feed_forward_sublayer_backward, tuple([t._node for t in tensors]), gain.data, xhat, inv_std,
                       pre, w1.data, hidden, phi_cdf, act, w2.data, drop)
    return Tensor._result(data, tensors, backward, op)


# -- the embedding before the encoder and the head after it, one node each ------------


def _patch_embedding_backward(nodes, tokens, w, drop, grad, grads):
    """The backwards of the dropout, the positional add, the concat, the class token's broadcast and the
    projection, in that order."""
    ntokens, nw, nbias, ncls, npos = nodes
    g = grad if drop is None else _dropout_grad(*drop, grad)
    if npos.requires_grad:
        grads(npos, _unbroadcast(g, npos.shape))
    if ncls.requires_grad:
        grads(ncls, _unbroadcast(g[:, :1], ncls.shape))
    g = _linear_grads(nw, nbias, tokens, w, g[:, 1:], grads, ntokens.requires_grad)
    if g is not None:
        grads(ntokens, g)


def patch_embedding(tokens, w, bias, class_token, positions, p: float = 0.0,
                    rng: list[np.random.Generator] | SlotDraws | None = None) -> Tensor:
    """The [B, N + 1, D] sequence the encoder reads, from [B, N, F] patch tokens, as one node:
    `dropout(concat([broadcast_to(class_token), linear(tokens, w, bias)]) + positions)`.

    The forward runs that chain's NumPy calls in their order and on the same
    arrays, so it gives the chain's bytes; a rate `p` > 0 draws the dropout
    from the slots' generators in `rng`. The graph keeps what the chain's
    backwards keep: the tokens, the weight and the dropout's draw. It scans
    its output, and the reverse pass scans its incoming gradient.
    """
    tensors = tuple([as_tensor(t) for t in (tokens, w, bias, class_token, positions)])
    tokens, w, bias, class_token, positions = tensors
    op = "patch_embedding"
    _check_linear(tokens, w, bias, op)
    if tokens.ndim != 3 or class_token.shape != bias.shape or positions.shape != (tokens.shape[1] + 1, w.shape[1]):
        raise ShapeError(f"{op} expects [B, N, F] tokens, a class token of the width and N + 1 positions, got "
                         f"{tokens.shape}, {class_token.shape} and {positions.shape} for a weight {w.shape}")
    cls = np.broadcast_to(class_token.data, (tokens.shape[0], 1, w.shape[1]))
    seq = np.concatenate([cls, _affine(tokens.data, w.data, bias.data)], axis=1)
    data, drop = _dropout_value(seq + positions.data, p, rng, op)
    backward = partial(_patch_embedding_backward, tuple([t._node for t in tensors]), tokens.data, w.data, drop)
    return Tensor._result(data, tensors, backward, op)


def _classifier_head_backward(nodes, gain, xhat, inv_std, state, w1, hidden, phi_cdf, drop, combined, w2, probs,
                              grad, grads):
    """The backwards of the sigmoid, the reshape, fc2, the concat, the dropout, the GELU, fc1, the class token's
    row and the norm, in that order."""
    nx, ngain, nbias, nw1, nb1, nw2, nb2, nwide = nodes
    to_norm = nx.requires_grad or ngain.requires_grad or nbias.requires_grad
    to_deep = to_norm or nw1.requires_grad or nb1.requires_grad
    # Each stage's gradient is dropped once the next one is computed, as the chain's reverse pass drops it.
    g = (grad * probs * (1.0 - probs)).reshape(probs.shape[0], 1, probs.shape[1])
    g = _linear_grads(nw2, nb2, combined, w2, g, grads, to_deep or nwide.requires_grad)
    if g is None:
        return
    deep = hidden.shape[2]
    grads(nwide, g[:, :, deep:])
    if not to_deep:
        return
    g = g[:, :, :deep]
    if drop is not None:
        g = _dropout_grad(*drop, g)
    g = _gelu_grad(hidden, phi_cdf, g)
    g = _linear_grads(nw1, nb1, state, w1, g, grads, to_norm)
    if g is None:
        return
    full = np.zeros_like(xhat)
    full[:, :1] += g
    _layer_norm_backward(nx, ngain, nbias, gain, xhat, inv_std, full, grads)


def classifier_head(x, gain, bias, w1, b1, w2, b2, wide, p: float = 0.0,
                    rng: list[np.random.Generator] | SlotDraws | None = None, exact: bool = False,
                    eps: float = 1e-5) -> tuple[Tensor, Tensor]:
    """The [B, C] probabilities of the encoder's [B, T, D] output and [B, 1, W] wide features, as one node, and
    their logits as a constant: `sigmoid(reshape(linear(concat([dropout(gelu(linear(layer_norm(x)[:, :1], w1,
    b1))), wide]), w2, b2)))`.

    The forward runs that chain's NumPy calls in their order and on the same
    arrays, so it gives the chain's bytes; `exact` picks GELU's erf form, and
    a rate `p` > 0 draws the dropout from the slots' generators in `rng`.
    Each slot's class token stays a one-row matrix [B, 1, D]: a one-row
    product takes another BLAS kernel than a row of a larger one. The graph
    keeps what the chain's backwards keep: the norm's gain, normalized input
    and inverse deviation, the class token's row, both weights, fc1's output
    (GELU's input; the exact form also keeps its `Phi`), the dropout's draw,
    fc2's input and the probabilities. It scans the norm's output, of which
    the head reads one row, and the logits, since the sigmoid maps an
    infinite logit to a finite probability; the reverse pass scans its
    incoming gradient.
    """
    tensors = tuple([as_tensor(t) for t in (x, gain, bias, w1, b1, w2, b2, wide)])
    x, gain, bias, w1, b1, w2, b2, wide = tensors
    op = "classifier_head"
    if x.ndim != 3 or wide.ndim != 3 or wide.shape[:2] != (x.shape[0], 1):
        raise ShapeError(f"{op} expects a [B, T, D] input and [B, 1, W] wide features, got {x.shape} and "
                         f"{wide.shape}")
    _check_norm(x, gain, bias, op)
    _check_linear(x, w1, b1, op)
    if w2.ndim != 2 or w2.shape[0] != w1.shape[1] + wide.shape[2] or b2.shape != w2.shape[1:]:
        raise ShapeError(f"{op}: a second weight {w2.shape} and bias {b2.shape} after a first weight {w1.shape} "
                         f"and {wide.shape[2]} wide features")
    normed, xhat, inv_std = _layer_norm_value(x.data, gain.data, bias.data, eps)
    _check_finite(normed, op)
    state = np.array(normed[:, :1], order="C")
    hidden = _affine(state, w1.data, b1.data)
    act, phi_cdf = _gelu_value(hidden, exact)
    deep, drop = _dropout_value(act, p, rng, op)
    combined = np.concatenate([deep, wide.data], axis=2)
    logits = _affine(combined, w2.data, b2.data).reshape(x.shape[0], w2.shape[1])
    _check_finite(logits, op)
    probs = _sigmoid_value(logits)
    backward = partial(_classifier_head_backward, tuple([t._node for t in tensors]), gain.data, xhat, inv_std, state,
                       w1.data, hidden, phi_cdf, drop, combined, w2.data, probs)
    return (Tensor._result(probs, tensors, backward, op, scanned=True),
            Tensor._result(logits, (), None, op, scanned=True))


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


def _topo_order(root: Tensor, uses: dict | None = None) -> list[Node]:
    """The nodes of `root`'s graph that need a gradient, each after its parents.

    With `uses`, each leaf that needs a gradient is counted into it once per
    edge to a consumer: the number of gradients the reverse pass hands it."""
    uses = {} if uses is None else uses
    order: list[Node] = []
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent._backward is not None:
                stack.append((parent, False))
            elif parent.requires_grad:
                if parent in uses:
                    uses[parent] += 1
                else:
                    uses[parent] = 1
                    order.append(parent)
    return order


def collect_gradients(loss: Tensor, wanted: dict[str, Tensor], into: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Reverse pass from `loss`: adds each wanted leaf's gradient into `into`, and returns `into`.

    `into` must hold, under every wanted name, an array of that tensor's
    shape and dtype; anything else is a ShapeError before the pass starts.
    `loss` is a scalar or a vector of per-slot losses; the pass is seeded
    with ones, so every slot's loss is differentiated as if it were alone.
    The pass walks the graph's nodes, which hold no values: the arrays it
    reads are the ones the nodes' backwards keep. Each intermediate
    gradient is dropped as soon as its node's backward has run. A leaf's
    gradients are summed in the order they are handed over, and the sum is
    added in place, `into[name] += g`, as soon as the last of them (one per
    edge, counted by `_topo_order`) is in, even while a fused node's backward
    is still running, so a pass holds one gradient set at most. A wanted
    tensor that no gradient reaches, or one that is not a leaf, leaves its
    array as it was.
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

    names = {t._node: name for name, t in wanted.items()}
    uses: dict[Node, int] = {}
    order = _topo_order(loss, uses)
    acc: dict[Node, np.ndarray] = {root: np.ones_like(loss.data)}

    def grads(t: Node, g: np.ndarray):
        if not t.requires_grad:
            return
        if g.shape != t.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {t.shape} ({t._op})")
        total = acc.pop(t, None)
        if total is not None:
            g = total + g
        if t._backward is not None:
            acc[t] = g
            return
        uses[t] -= 1
        if uses[t]:
            acc[t] = g
        elif t in names:
            into[names[t]] += g

    for node in reversed(order):
        g = acc.pop(node, None)
        if g is None:
            continue
        if node._backward is not None:
            _check_finite(g, node)
            node._backward(g, grads)
        elif node in names:  # a leaf loss
            into[names[node]] += g
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
    checked: a NaN or Inf, or an entry whose square would make v or the
    bias-corrected v / (1 - beta2**t) overflow, raises NumericalError naming
    the tensor and leaves the parameters, m, v and t as they were (an
    infinite v would stop that parameter for good). Then m, v and the
    parameters are overwritten block by block over the flat buffers with the
    textbook update's operations in its order, so the numbers are bitwise
    those of the allocating form m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
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
    t = state["t"] + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    # g . g is NaN or Inf when any entry is, and needs no temporary. Up to half
    # the dtype's largest value it bounds every square by that, so v / c2, an
    # average of the squares, stays finite; only a larger total needs the
    # exact scan, which runs v's update on each tensor. (Overflow is what the
    # scan looks for, so it warns nothing.)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.dot(flat_grad, flat_grad)
        if not total <= np.finfo(flat_grad.dtype).max / 2:
            for name, g in views.items():
                if not np.isfinite(g).all():
                    raise NumericalError(f"adam_step: the gradient of {name!r} is not finite")
                v = np.multiply(state["v"][name], beta2)
                v += np.multiply(g, 1.0 - beta2) * g
                if not np.isfinite(np.divide(v, c2, out=v)).all():
                    raise NumericalError(f"adam_step: the gradient of {name!r} overflows its second moment")
    state["t"] = t
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
