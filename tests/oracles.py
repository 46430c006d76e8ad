"""Independent reference implementations used only to check the package.

Everything here is written the dumbest correct way (explicit loops, direct
summation) and never shares code with src/. The exceptions are
`gradients_into_zeros`, the package's own reverse pass, for tests that only
need a graph's gradients; `forward_one`, the package's forward on a batch of
one, for tests of a single record; the unfused chains, each of which builds,
from the package's primitive ops, the graph that one fused autograd node
replaces; the reference nodes that keep what a package backward recomputes;
the reductions written as NumPy's methods, which the package calls as ufunc
reductions; and the reference record reader, which uses the package's header parser,
record type and features around a decode of every lead.
"""

import csv
from pathlib import Path

import numpy as np

from ecgformer import autograd as ag
from ecgformer import features, model
from ecgformer.errors import ArgumentRangeError
from ecgformer.errors import RecordFormatError, TruncationError
from ecgformer.record_io import EcgRecord, _parse_header_text


def brute_challenge_metric(labels, predictions, w, normal_idx):
    """Direct per-record summation of the weighted score, then normalization."""

    def raw(preds):
        total = 0.0
        for r in range(labels.shape[0]):
            union = set(np.flatnonzero(labels[r])) | set(np.flatnonzero(preds[r]))
            n_r = max(len(union), 1)
            for i in np.flatnonzero(labels[r]):
                for j in np.flatnonzero(preds[r]):
                    total += w[i, j] / n_r
        return total

    normal_only = np.zeros_like(labels)
    normal_only[:, normal_idx] = 1
    observed = raw(predictions)
    correct = raw(labels)
    inactive = raw(normal_only)
    return (observed - inactive) / (correct - inactive)


def brute_confusion_weighted(labels, predictions):
    """Record-by-record generalized confusion matrix: += 1/n_r on each (true, predicted) cell."""
    num_records, num_classes = labels.shape
    a = np.zeros((num_classes, num_classes))
    for r in range(num_records):
        true_idx = np.flatnonzero(labels[r])
        pred_idx = np.flatnonzero(predictions[r])
        n_r = max(len(set(true_idx) | set(pred_idx)), 1)
        if len(true_idx) and len(pred_idx):
            a[np.ix_(true_idx, pred_idx)] += 1.0 / n_r
    return a


def loop_challenge_metric(labels, predictions, w, normal_idx):
    """The challenge metric as sum(w * A) of `brute_confusion_weighted`, normalized.

    Same value as `brute_challenge_metric`, but rounded the way the package
    rounds it, so ties between different predictions resolve alike.
    """
    normal_only = np.zeros_like(labels)
    normal_only[:, normal_idx] = 1
    observed, correct, inactive = (float(np.sum(w * brute_confusion_weighted(labels, p)))
                                   for p in (predictions, labels, normal_only))
    return (observed - inactive) / (correct - inactive)


THRESHOLD_GRID = [round(0.02 * k, 2) for k in range(1, 50)]  # 0.02 .. 0.98


def brute_fit_thresholds(probs, labels, w, normal_idx, metric=brute_challenge_metric, passes=2):
    """Coordinate ascent over the 0.02 grid, every grid point scored by `metric`.

    Starts at 0.5; classes without a positive label stay there. Metric ties go
    to the threshold closest to 0.5, then the smaller one.
    """
    num_classes = labels.shape[1]
    thresholds = [0.5] * num_classes
    scores = {}
    for _ in range(passes):
        for c in range(num_classes):
            if labels[:, c].sum() == 0:
                continue
            candidates = []
            for t in THRESHOLD_GRID:
                trial = list(thresholds)
                trial[c] = t
                preds = (probs >= np.array(trial)).astype(np.int64)
                key = preds.tobytes()
                if key not in scores:
                    scores[key] = metric(labels, preds, w, normal_idx)
                candidates.append((scores[key], t))
            best = max(m for m, _ in candidates)
            thresholds[c] = min((t for m, t in candidates if m == best), key=lambda t: (abs(t - 0.5), t))
    return np.array(thresholds)


def brute_auroc(scores, labels):
    """All (positive, negative) pairs, ties half-credited."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def dtft_magnitude(taps, freqs_hz, fs_hz):
    """|H(f)| by direct evaluation of the transfer function sum."""
    taps = np.asarray(taps, dtype=np.float64)
    n = np.arange(len(taps))
    out = []
    for f in np.atleast_1d(freqs_hz):
        z = np.exp(-2j * np.pi * f / fs_hz * n)
        out.append(abs(np.sum(taps * z)))
    return np.array(out)


def full_convolution_filter(signal, taps):
    """Each row's full convolution with the taps, cut to the row's length after the (taps - 1) / 2 delay."""
    delay = (len(taps) - 1) // 2
    out = np.empty_like(signal)
    for lead in range(signal.shape[0]):
        out[lead] = np.convolve(signal[lead], taps, mode="full")[delay : delay + signal.shape[1]]
    return out


def per_lead_normalize(signal, eps=1e-8):
    """Each lead divided by its own max magnitude; a lead whose max magnitude is below eps stays all zeros."""
    out = np.zeros_like(signal)
    for lead in range(signal.shape[0]):
        peak = np.max(np.abs(signal[lead])) if signal.shape[1] else 0.0
        if peak >= eps:
            out[lead] = signal[lead] / peak
    return out


def per_lead_interp_resample(signal, from_hz, to_hz):
    """Each lead by `np.interp` onto the grid j * from/to, the last segment extended linearly past the input's end."""
    num_leads, n = signal.shape
    positions = np.arange(int(round(n * to_hz / from_hz)), dtype=np.float64) * (from_hz / to_hz)
    src = np.arange(n, dtype=np.float64)
    out = np.empty((num_leads, positions.size), dtype=np.float64)
    overhang = positions > n - 1
    for lead in range(num_leads):
        out[lead] = np.interp(positions, src, signal[lead])
        if overhang.any() and n >= 2:
            last_slope = signal[lead, n - 1] - signal[lead, n - 2]
            out[lead, overhang] = signal[lead, n - 1] + (positions[overhang] - (n - 1)) * last_slope
    return out


def central_difference_grad(f, x, h=1e-5):
    """Elementwise central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric, guard=1e-3):
    """Max elementwise |a-n| / max(|a|, |n|, guard)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), guard)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def straight_line_stats(x):
    """Mean/std/skew/kurtosis/min/max with explicit population moments."""
    x = np.asarray(x, dtype=np.float64)
    mean = float(np.sum(x) / x.size)
    m2 = float(np.sum((x - mean) ** 2) / x.size)
    m3 = float(np.sum((x - mean) ** 3) / x.size)
    m4 = float(np.sum((x - mean) ** 4) / x.size)
    std = m2 ** 0.5
    skew = m3 / m2 ** 1.5 if m2 > 1e-24 else 0.0
    kurt = m4 / m2 ** 2 - 3.0 if m2 > 1e-24 else 0.0
    return mean, std, skew, kurt, float(np.min(x)), float(np.max(x))


def per_head_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, num_heads, key_mask=None, drop=0.0, rng=None):
    """Multi-head self-attention one head at a time: column slices, then concat.

    x is [T, D]. key_mask (bool [T]) sends masked keys to -1e30 before the
    softmax; with drop > 0 each head draws its own [T, T] inverted-dropout
    mask from rng, head 0 first. Returns the output, the per-head attention
    maps [H, T, T] and a cache for `per_head_attention_backward`.
    """
    t, d = x.shape
    dh = d // num_heads
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    scale = 1.0 / np.sqrt(dh)
    heads, maps, masks, dropped = [], [], [], []
    for h in range(num_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = (q[:, cols] @ k[:, cols].T) * scale
        if key_mask is not None:
            scores = scores + np.where(key_mask, 0.0, -1e30)[None, :]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        maps.append(probs)
        if drop > 0.0:
            mask = (rng.random((t, t)) < 1.0 - drop).astype(x.dtype) / (1.0 - drop)
            masks.append(mask)
            probs = probs * mask
        dropped.append(probs)
        heads.append(probs @ v[:, cols])
    merged = np.concatenate(heads, axis=1)
    cache = dict(x=x, q=q, k=k, v=v, wq=wq, wk=wk, wv=wv, wo=wo, maps=maps, masks=masks,
                 dropped=dropped, merged=merged, dh=dh, scale=scale)
    return merged @ wo + bo, np.stack(maps), cache


def per_head_attention_backward(grad, cache):
    """Gradients of `per_head_attention`: (dx, [dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo]).

    The three contributions to dx are summed q, then k, then v.
    """
    c = cache
    dh = c["dh"]
    dmerged = grad @ c["wo"].T
    dq, dk, dv = np.zeros_like(c["q"]), np.zeros_like(c["k"]), np.zeros_like(c["v"])
    for h, probs in enumerate(c["maps"]):
        cols = slice(h * dh, (h + 1) * dh)
        g = dmerged[:, cols]
        ddropped = g @ c["v"][:, cols].T
        dv[:, cols] = c["dropped"][h].T @ g
        dprobs = ddropped * c["masks"][h] if c["masks"] else ddropped
        dscores = (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * probs
        dscores = dscores * c["scale"]
        dq[:, cols] = dscores @ c["k"][:, cols]
        dk[:, cols] = (c["q"][:, cols].T @ dscores).T
    x = c["x"]
    dx = dq @ c["wq"].T + dk @ c["wk"].T + dv @ c["wv"].T
    dparams = [x.T @ dq, dq.sum(axis=0), x.T @ dk, dk.sum(axis=0), x.T @ dv, dv.sum(axis=0),
               c["merged"].T @ grad, grad.sum(axis=0)]
    return dx, dparams


def textbook_adam(p, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Allocating Adam over one gradient per step; returns the final p, m and v."""
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


def allocating_collect_gradients(loss, wanted):
    """The reverse pass that keeps every gradient until it ends: {name: gradient}.

    Gradients of one tensor are summed as they arrive, each sum a new array;
    a wanted tensor that no gradient reaches gets zeros. Arrays are handed
    out as the backward closures made them, so two names may share one.
    """
    order, seen, stack = [], set(), [(loss._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if p.requires_grad)
    acc = {id(loss._node): np.ones_like(loss.data)}

    def grads(node, g):
        if node.requires_grad:
            acc[id(node)] = acc[id(node)] + g if id(node) in acc else g

    for node in reversed(order):
        if node._backward is not None and id(node) in acc:
            node._backward(acc[id(node)], grads)
    return {name: acc[id(t._node)] if id(t._node) in acc else np.zeros_like(t.data) for name, t in wanted.items()}


def gradients_into_zeros(loss, wanted):
    """{name: gradient} of `loss`, added by `collect_gradients` into a fresh zeroed total, as a training step does."""
    return ag.collect_gradients(loss, wanted, {name: np.zeros_like(t.data) for name, t in wanted.items()})


# -- unfused chains: the graphs the fused autograd nodes replace, op for op ----


def permute(a, axes):
    """Axes reordered as `np.transpose` does, as one graph node; value and gradient are C-contiguous copies."""
    inverse = tuple(int(i) for i in np.argsort(axes))
    data = np.ascontiguousarray(np.transpose(a.data, axes))
    na = a._node

    def backward_fn(grad, grads):
        grads(na, np.ascontiguousarray(np.transpose(grad, inverse)))

    return type(a)._result(data, (a,), backward_fn, "permute")


def chain_linear(x, w, bias):
    """`ag.linear` as a product node, then a bias node."""
    return ag.add(ag.matmul(x, w), bias)


def chain_split_heads(y, heads):
    """[B, T, D] -> [B*H, T, D/H], the head split of `ag.attention_sublayer`, as reshape, permute, reshape."""
    b, t, d = y.shape
    return ag.reshape(permute(ag.reshape(y, (b, t, heads, d // heads)), (0, 2, 1, 3)), (b * heads, t, d // heads))


def chain_merge_heads(y, batch):
    """[B*H, T, d_h] -> [B, T, H*d_h], the head merge of `ag.attention_sublayer`, as reshape, permute, reshape."""
    bh, t, dh = y.shape
    heads = bh // batch
    return ag.reshape(permute(ag.reshape(y, (batch, heads, t, dh)), (0, 2, 1, 3)), (batch, t, heads * dh))


def chain_attention_scores(q, k, scale):
    """`(q @ kᵀ) * scale`, the scores of `ag.attention_sublayer`, as transpose, product, scale."""
    return ag.mul(ag.matmul(q, ag.transpose(k)), scale)


def chain_attention(q, k, v, heads, key_mask=None, p=0.0, rng=None):
    """The attention of `ag.attention_sublayer` over q, k and v as the three head splits, the scaled scores, the
    key-mask bias add, the softmax, the dropout then value product (a plain product without dropout) and the head
    merge."""
    b, t, d = q.shape
    qh, kh, vh = (chain_split_heads(y, heads) for y in (q, k, v))
    scores = chain_attention_scores(qh, kh, 1.0 / np.sqrt(d // heads))
    if key_mask is not None:
        bias = np.repeat(np.where(key_mask, 0.0, -1e30)[:, None, :], heads, axis=0)
        scores = ag.add(scores, ag.Tensor(bias, dtype=q.data.dtype))
    attn = ag.softmax(scores)
    return chain_merge_heads(chain_dropout_matmul(attn, vh, p, rng) if p else ag.matmul(attn, vh), b)


def chain_attention_sublayer(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, heads, key_mask=None, p=0.0, rng=None):
    """`ag.attention_sublayer` as the chain of nodes it replaces: the norm, the q, k and v projections of its output,
    the attention as `chain_attention` (drawing its map's dropout first), the output projection, its dropout and the
    residual add."""
    pre = ag.layer_norm(x, gain, bias)
    q, k, v = (ag.linear(pre, w, b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    out = ag.linear(chain_attention(q, k, v, heads, key_mask, p, rng), wo, bo)
    return ag.add(x, ag.dropout(out, p, rng))


def chain_feed_forward_sublayer(x, gain, bias, w1, b1, w2, b2, p=0.0, rng=None, exact=False):
    """`ag.feed_forward_sublayer` as the chain of nodes it replaces: the norm, the first linear, the GELU, the
    second linear, its dropout and the residual add."""
    out = ag.linear(ag.gelu(ag.linear(ag.layer_norm(x, gain, bias), w1, b1), exact), w2, b2)
    return ag.add(x, ag.dropout(out, p, rng))


def chain_patch_embedding(tokens, w, bias, class_token, positions, p=0.0, rng=None):
    """`ag.patch_embedding` as the chain of nodes it replaces: the projection, the class token's broadcast over the
    slots, the concat, the positional add and the dropout."""
    cls = ag.broadcast_to(class_token, (tokens.shape[0], 1, w.shape[1]))
    return ag.dropout(ag.add(ag.concat([cls, ag.linear(tokens, w, bias)], axis=1), positions), p, rng)


def chain_classifier_head(x, gain, bias, w1, b1, w2, b2, wide, p=0.0, rng=None, exact=False):
    """`ag.classifier_head` as the chain of nodes it replaces, returning the probabilities and the logits: the norm,
    the class token's row, fc1, the GELU, the dropout, the concat with the wide features, fc2, the reshape and the
    sigmoid."""
    state = ag.tensor_slice(ag.layer_norm(x, gain, bias), np.s_[:, :1, :])
    deep = ag.dropout(ag.gelu(ag.linear(state, w1, b1), exact), p, rng)
    logits = ag.reshape(ag.linear(ag.concat([deep, wide], axis=2), w2, b2), (x.shape[0], w2.shape[1]))
    return ag.sigmoid(logits), logits


def float_mask_dropout(a, p, rng):
    """Inverted dropout as one graph node whose backward keeps the float mask the forward multiplied by.

    The leading axis is cut into len(rng) equal slots; slot s draws its
    uniforms from rng[s], and the mask is 1/(1-p) where a draw is below 1-p,
    else 0."""
    draws = np.empty(a.shape)
    rows = a.shape[0] // len(rng)
    for slot, gen in enumerate(rng):
        gen.random(out=draws[slot * rows : (slot + 1) * rows])
    keep = 1.0 - p
    mask = (draws < keep).astype(a.data.dtype) / keep
    na = a._node

    def backward_fn(grad, grads):
        grads(na, grad * mask)

    return type(a)._result(a.data * mask, (a,), backward_fn, "float_mask_dropout")


class CountingGenerator:
    """A NumPy generator that records how many doubles each of its `random(out=...)` calls draws."""

    def __init__(self, seed):
        self.generator, self.draws = np.random.default_rng(seed), []

    def random(self, *, out):
        self.draws.append(out.size)
        return self.generator.random(out=out)


def per_site_draws(generators, sizes):
    """A stand-in for `ag.SlotDraws`: the list of generators itself, from which each dropout site draws on its own."""
    return generators


def chain_dropout_matmul(a, b, p, rng):
    """`dropout(a) @ b`, the value product of `ag.attention_sublayer` in training, as the float-mask dropout node,
    then a product node."""
    return ag.matmul(float_mask_dropout(a, p, rng), b)


# -- the reductions as NumPy's methods `.sum`, `.mean` and `.max`, for the package's ufunc reductions ----------


def method_unbroadcast(grad, shape):
    """A gradient reduced to `shape`: each slot over its broadcast axes, then the slots in order, by `.sum`."""
    slots = grad.ndim > len(shape)
    while grad.ndim > len(shape) + slots:
        grad = grad.sum(axis=1)
    for axis, size in enumerate(shape, start=slots):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.sum(axis=0) if slots else grad


def method_right_operand_grad(a, grad, shared):
    """The gradient of `b` in `a @ b`; a `shared` 2-d b sums the slots' products by `.sum`."""
    if not shared:
        return np.swapaxes(a, -1, -2) @ grad
    if a.shape[0] == 1:
        return np.swapaxes(a[0], -1, -2) @ grad[0]
    return (np.swapaxes(a, -1, -2) @ grad).sum(axis=0)


def method_softmax(a):
    """`ag.softmax` as one node whose row maximum and sums are `.max` and `.sum`."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    na = a._node

    def backward_fn(grad, grads):
        grads(na, (grad - (grad * out).sum(axis=-1, keepdims=True)) * out)

    return type(a)._result(out, (a,), backward_fn, "method_softmax")


def method_layer_norm(a, gain, bias, eps=1e-5):
    """`ag.layer_norm` as one node whose means are `.mean` and whose sums are `.sum`."""
    x, d = a.data, a.shape[-1]
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv_std
    na, ngain, nbias, g_data = a._node, gain._node, bias._node, gain.data

    def backward_fn(grad, grads):
        dxhat = grad * g_data
        sum_dxhat = dxhat.sum(axis=-1, keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=-1, keepdims=True)
        grads(na, (inv_std / d) * (d * dxhat - sum_dxhat - xhat * sum_dxhat_xhat))
        grads(ngain, method_unbroadcast(grad * xhat, ngain.shape))
        grads(nbias, method_unbroadcast(grad, nbias.shape))

    return type(a)._result(xhat * gain.data + bias.data, (a, gain, bias), backward_fn, "method_layer_norm")


def chain_positions(seq, table):
    """A positional table added to [B, T, D] tokens through a selection of all its rows in order."""
    return ag.add(seq, ag.embedding_row_select(table, np.arange(table.shape[0])))


def tensor_sum(a):
    """Total sum of a tensor to a scalar tensor, as one graph node whose gradient is all ones."""
    data = np.asarray(a.data.sum())
    na, x = a._node, a.data

    def backward_fn(grad, grads):
        grads(na, np.full_like(x, 1.0) * grad)

    return type(a)._result(data, (a,), backward_fn, "sum")


def tensor_mean(a, axis=None):
    """Mean of a tensor over `axis` (all of it by default), as one graph node."""
    data = np.asarray(a.data.mean(axis=axis))
    na, x = a._node, a.data

    def backward_fn(grad, grads):
        if axis is None:
            grads(na, np.full_like(x, 1.0 / x.size) * grad)
        else:
            grads(na, np.broadcast_to(np.expand_dims(grad, axis) / x.shape[axis], x.shape).copy())

    return type(a)._result(data, (a,), backward_fn, "mean")


def whole_tensor_truncated_normal(rng, shape, sigma=0.02):
    """Normal(0, sigma) with redraws outside two sigma, rescanning the whole tensor after each round."""
    out = rng.normal(0.0, sigma, size=shape)
    bad = np.abs(out) > 2.0 * sigma
    while bad.any():
        out[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * sigma
    return out


def fold_label_deviation(label_matrix, assignment):
    """Sum over folds and labels of |positives in fold - ideal share|."""
    labels = np.asarray(label_matrix, dtype=np.float64)
    ideal = labels.sum(axis=0) / assignment.k
    total = 0.0
    for fold in range(assignment.k):
        counts = labels[assignment.fold_of == fold].sum(axis=0)
        total += float(np.abs(counts - ideal).sum())
    return total


def forward_one(window, wide, params, config, mode="eval", seed=None, capture_attention=False):
    """`model.forward` of one record as a batch of one, with the batch axis dropped from every output. In
    train mode the record draws its dropout from `np.random.default_rng(seed)` (none without a seed)."""
    rng = None if seed is None else [np.random.default_rng(seed)]
    out = model.forward([window], np.asarray(wide)[None], params, config, mode, rng, capture_attention)
    maps = None if out.attention_maps is None else [m[0] for m in out.attention_maps]
    return model.ModelOutput(ag.reshape(out.probabilities, (config.d_class,)),
                             ag.reshape(out.logits, (config.d_class,)), maps)


def copy_arrays(params):
    """{name: a copy of the array} of a model's parameters."""
    return {k: t.data.copy() for k, t in params.tensors.items()}


def read_csv_map(path):
    """An attention CSV export read back as a float matrix."""
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh)])


GELU_C = (2.0 / np.pi) ** 0.5
GELU_A = 0.044715


def product_gelu(x, grad):
    """Tanh-form GELU of x and its input gradient for an upstream `grad`, the cube as (x * x) * x.

    Spelled out term by term in the order the package evaluates them, so the
    bytes must match exactly.
    """
    cube = x * x
    cube = cube * x
    inner = GELU_C * (x + GELU_A * cube)
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)
    square = x * x
    dinner = GELU_C * (1.0 + 3.0 * GELU_A * square)
    t_squared = t * t
    dx = grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t_squared) * dinner)
    return y, dx


def keep_t_gelu(a):
    """Tanh-form GELU as one graph node whose backward keeps `t = tanh(...)` from the forward."""
    x = a.data
    t = np.tanh(GELU_C * (x + GELU_A * (x * x * x)))
    na = a._node

    def backward_fn(grad, grads):
        dinner = GELU_C * (1.0 + 3.0 * GELU_A * x**2)
        grads(na, grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner))

    return type(a)._result(0.5 * x * (1.0 + t), (a,), backward_fn, "keep_t_gelu")


def pow_form_wide_features(lead, fs, num_samples, age_years, sex, peak_indices, impute_age_years=60.0,
                           age_scale=100.0, heart_rate_scale=300.0):
    """The 22 wide features with every power through `**`, as they were computed before the
    moments became products: a frozen reference for the columns that must keep their bytes."""
    values = np.zeros(22)
    age = impute_age_years if age_years is None else age_years
    values[0] = age / age_scale
    values[1] = 1.0 if sex == "male" else 0.0
    idx = np.asarray(peak_indices, dtype=np.int64)
    if idx.size >= 2:
        rr = np.diff(idx) / fs
        values[2] = rr.mean()
        values[3] = float(np.median(rr))
        values[4] = rr.std()
        values[5] = rr.min()
        values[6] = rr.max()
        values[7] = rr.max() - rr.min()
        values[8] = (60.0 / rr.mean()) / heart_rate_scale
        drr = np.diff(rr)
        values[9] = float(np.sqrt((drr**2).mean())) if drr.size else 0.0
        values[10] = float((np.abs(drr) > 0.05).mean()) if drr.size else 0.0
        values[11] = idx.size / (num_samples / fs)
        amps = lead[idx]
        values[12] = amps.mean()
        values[13] = amps.std()
        values[14] = amps.min()
        values[15] = amps.max()
    mean = float(lead.mean())
    centered = lead - mean
    m2 = float((centered**2).mean())
    values[16] = mean
    if m2 >= 1e-24:
        values[17] = m2**0.5
        values[18] = float((centered**3).mean()) / m2**1.5
        values[19] = float((centered**4).mean()) / m2**2 - 3.0
    values[20] = lead.min()
    values[21] = lead.max()
    return values


class PerStepStreams:
    """`train._Streams` built the direct way: a new NumPy generator for every draw.

    A window seed is `SeedSequence([seed, 13, epoch, rec])`'s first word, which
    `dsp.cut_window` turns into its own generator, and the dropout generators
    of a step are built from `SeedSequence([seed, 17, step, slot])`.
    """

    def __init__(self, seed, batch, max_steps):
        self.seed, self.batch = seed, batch

    def window_seeds(self, epoch, records):
        return [int(np.random.SeedSequence([self.seed, 13, epoch, rec]).generate_state(1)[0]) for rec in records]

    def window_rng(self, window_seed):
        return window_seed

    def dropout_rngs(self, step):
        return [np.random.default_rng(np.random.SeedSequence([self.seed, 17, step, slot]))
                for slot in range(self.batch)]


def reference_parse_record(header_path):
    """Every lead of a record decoded, as a Fortran-ordered [leads x samples] matrix."""
    header_path = Path(header_path)
    record_id, num_leads, rate, num_samples, leads, meta = _parse_header_text(header_path)
    if len({fname for fname, _, _, _ in leads}) != 1:
        raise RecordFormatError(f"{header_path}: all leads must share one signal file")
    blob = (header_path.parent / leads[0][0]).read_bytes()
    if len(blob) != 2 * num_samples * num_leads:
        raise TruncationError(f"{header_path}: signal file of {len(blob)} bytes")
    adc = np.frombuffer(blob, dtype="<i2").reshape(num_samples, num_leads).T.astype(np.float64)
    signal = np.empty_like(adc)
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny gain overflows to inf, as the package's decode does
        for i, (_, gain, baseline, _) in enumerate(leads):
            signal[i] = (adc[i] - baseline) / gain
    return EcgRecord(record_id, rate, signal, [name for _, _, _, name in leads], meta["age"], meta["sex"], meta["dx"])


def select_leads(record, subset):
    """Restrict a record to the subset's leads, in subset order."""
    rows = []
    for lead in subset.leads:
        if lead not in record.lead_names:
            raise ArgumentRangeError(f"{record.record_id}: lead {lead!r} not present (has {record.lead_names})")
        rows.append(record.lead_names.index(lead))
    return EcgRecord(record.record_id, record.sampling_rate_hz, record.signal[rows].copy(), list(subset.leads),
                     record.age_years, record.sex, set(record.dx_codes))


def reference_prepare_record(header_path, subset, feature_config, d_wide):
    """The whole record decoded, its features computed, then its subset's leads selected."""
    record = reference_parse_record(header_path)
    wide = features.record_features(record, feature_config).values[:d_wide].copy()
    return select_leads(record, subset), wide
