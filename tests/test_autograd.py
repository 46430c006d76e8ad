import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgformer import autograd as ag
from ecgformer.errors import NumericalError, RecordFormatError, ShapeError

from oracles import (allocating_collect_gradients, central_difference_grad, chain_attention_scores,
                     chain_dropout_matmul, chain_linear, chain_merge_heads, chain_positions, chain_split_heads,
                     float_mask_dropout, gradients_into_zeros, keep_t_gelu, max_rel_err, permute, product_gelu,
                     tensor_mean, tensor_sum, textbook_adam)

GRAD_TOL = 1e-6


def check_op_gradient(build_loss, *input_shapes, seed=0, tol=GRAD_TOL):
    """Compare analytic gradients of scalar build_loss(*tensors) to central differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in input_shapes]
    tensors = [ag.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    named = {str(i): t for i, t in enumerate(tensors)}
    analytic = gradients_into_zeros(loss, named)
    for i, base in enumerate(arrays):
        def f(x, i=i):
            probe = [a.copy() for a in arrays]
            probe[i] = x
            ts = [ag.Tensor(a) for a in probe]
            return build_loss(*ts).item()

        numeric = central_difference_grad(f, base.copy())
        err = max_rel_err(analytic[str(i)], numeric)
        assert err < tol, f"input {i}: rel err {err}"


class TestForwardValues:
    def test_softmax_uniform_on_zeros(self):
        out = ag.softmax(ag.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = ag.softmax(ag.Tensor(rng.normal(size=(5, 7)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert (out.data >= 0).all()

    def test_layer_norm_constant_vector_is_zero(self):
        out = ag.layer_norm(ag.Tensor(np.full((4,), 3.7)), ag.Tensor(np.ones(4)), ag.Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_sigmoid_at_zero(self):
        assert ag.sigmoid(ag.Tensor([0.0])).data[0] == 0.5

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)|\(2, 2\).*\(2, 3\)"):
            ag.matmul(ag.Tensor(np.zeros((2, 3))), ag.Tensor(np.zeros((2, 2))))

    def test_nan_trips_checked_error(self):
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            ag.mul(ag.Tensor([1e308]), ag.Tensor([1e308]))
        with pytest.raises(NumericalError):
            ag.Tensor([np.nan])

    def test_dropout_eval_is_identity(self):
        x = ag.Tensor(np.arange(6.0).reshape(2, 3))
        assert ag.dropout(x, 0.5, training=False) is x

    def test_dropout_deterministic_per_seed(self):
        x = ag.Tensor(np.ones((4, 4)))
        a = ag.dropout(x, 0.4, rng=[np.random.default_rng(123)]).data
        b = ag.dropout(x, 0.4, rng=[np.random.default_rng(123)]).data
        np.testing.assert_array_equal(a, b)

    def test_dropout_slots_draw_from_their_own_generators(self):
        # Three slots of four rows (say, heads): slot s draws its whole mask from generator s, as it would alone.
        x = ag.Tensor(np.random.default_rng(21).normal(size=(12, 5, 5)))
        out = ag.dropout(x, 0.3, rng=[np.random.default_rng(seed) for seed in (7, 8, 9)])
        for slot, seed in enumerate((7, 8, 9)):
            alone = ag.dropout(ag.Tensor(x.data[4 * slot : 4 * slot + 4]), 0.3, rng=[np.random.default_rng(seed)])
            assert alone.data.tobytes() == out.data[4 * slot : 4 * slot + 4].tobytes()
        with pytest.raises(ShapeError, match="generators"):
            ag.dropout(x, 0.3, rng=[np.random.default_rng(seed) for seed in range(5)])

    def test_dropout_expectation(self):
        # Mean of dropout(x) over 1e4 trials stays within 3 sigma of x.
        p, trials = 0.3, 10_000
        x = ag.Tensor(np.ones(8))
        total = np.zeros(8)
        for seed in range(trials):
            total += ag.dropout(x, p, rng=[np.random.default_rng(seed)]).data
        est = total / trials
        sigma = np.sqrt(p / (1 - p) / trials)  # var of mask/keep for x=1
        assert np.all(np.abs(est - 1.0) < 3 * sigma + 1e-9)

    def test_bce_clamps_extreme_probabilities(self):
        loss = ag.binary_cross_entropy(ag.Tensor([0.0, 1.0]), np.array([0.0, 1.0]))
        assert np.isfinite(loss.item())


class TestBackwardBasics:
    def test_sum_gives_ones(self):
        x = ag.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        grads = gradients_into_zeros(tensor_sum(x), {"x": x})
        np.testing.assert_array_equal(grads["x"], np.ones((2, 3)))

    def test_product_rule(self):
        rng = np.random.default_rng(2)
        xv, yv = rng.normal(size=5), rng.normal(size=5)
        x = ag.Tensor(xv, requires_grad=True)
        y = ag.Tensor(yv, requires_grad=True)
        grads = gradients_into_zeros(tensor_sum(x * y), {"x": x, "y": y})
        np.testing.assert_allclose(grads["x"], yv)
        np.testing.assert_allclose(grads["y"], xv)

    def test_fanout_accumulates(self):
        x = ag.Tensor(np.ones(3), requires_grad=True)
        loss = tensor_sum(ag.add(x, x))
        grads = gradients_into_zeros(loss, {"x": x})
        np.testing.assert_array_equal(grads["x"], np.full(3, 2.0))

    def test_second_backward_is_error(self):
        x = ag.Tensor(np.ones(3), requires_grad=True)
        loss = tensor_sum(x)
        gradients_into_zeros(loss, {"x": x})
        with pytest.raises(RuntimeError, match="already ran"):
            gradients_into_zeros(loss, {"x": x})

    def test_non_scalar_loss_rejected(self):
        # A loss is a scalar or a vector of per-slot losses; a matrix is neither.
        x = ag.Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            gradients_into_zeros(x * 2.0, {"x": x})

    def test_per_slot_loss_vector_is_seeded_with_ones(self):
        # Each slot's loss and gradient are those of its row differentiated alone.
        x = ag.Tensor(np.arange(6.0).reshape(3, 2) - 2.5, requires_grad=True)
        targets = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        loss = ag.binary_cross_entropy(ag.sigmoid(x), targets, per_slot=True)
        assert loss.shape == (3,)
        grads = gradients_into_zeros(loss, {"x": x})
        for row in range(3):
            alone = ag.Tensor(x.data[row], requires_grad=True)
            one = ag.binary_cross_entropy(ag.sigmoid(alone), targets[row])
            assert one.data.tobytes() == loss.data[row].tobytes()
            assert gradients_into_zeros(one, {"x": alone})["x"].tobytes() == grads["x"][row].tobytes()

    def test_detached_loss_rejected(self):
        with pytest.raises(NumericalError, match="detached"):
            x = ag.Tensor(np.ones(3))
            gradients_into_zeros(tensor_sum(x), {"x": x})

    def test_broadcast_add_backward_preserves_grad_sum(self):
        # Gradient of the broadcast operand equals the explicit-tiling gradient.
        rng = np.random.default_rng(3)
        xv = rng.normal(size=(4, 3))
        bv = rng.normal(size=3)
        x = ag.Tensor(xv, requires_grad=True)
        b = ag.Tensor(bv, requires_grad=True)
        grads = gradients_into_zeros(tensor_sum(ag.mul(ag.add(x, b), ag.Tensor(rng.normal(size=(4, 3))))),
                                     {"x": x, "b": b})
        x2 = ag.Tensor(xv, requires_grad=True)
        b2 = ag.Tensor(np.tile(bv, (4, 1)), requires_grad=True)
        # Same weights for an apples-to-apples comparison.
        rng = np.random.default_rng(3)
        rng.normal(size=(4, 3)), rng.normal(size=3)
        w = rng.normal(size=(4, 3))
        loss2 = tensor_sum(ag.mul(ag.add(x2, b2), ag.Tensor(w)))
        grads2 = gradients_into_zeros(loss2, {"x": x2, "b": b2})
        np.testing.assert_allclose(grads["b"], grads2["b"].sum(axis=0))


def _zeros(wanted):
    return {name: np.zeros_like(t.data) for name, t in wanted.items()}


def _accumulated(build, samples):
    """Batch-mean gradients over `samples` the way training sums them: in place, into a zeroed total."""
    total = None
    for seed in samples:
        loss, wanted = build(seed)
        total = ag.collect_gradients(loss, wanted, _zeros(wanted) if total is None else total)
    for g in total.values():
        g *= 1.0 / len(samples)
    return total


def _allocating_reference(build, samples):
    """The same batch mean from the oracle, added into zeros, every sum a new array."""
    total = None
    for seed in samples:
        grads = allocating_collect_gradients(*build(seed))
        total = {name: (np.zeros_like(g) if total is None else total[name]) + g for name, g in grads.items()}
    return {name: g * (1.0 / len(samples)) for name, g in total.items()}


def _shared_add(seed):
    # One add hands the same gradient array to both of its same-shape leaves.
    rng = np.random.default_rng(seed)
    a = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    loss = tensor_sum(ag.mul(ag.add(a, b), ag.Tensor(3.0 + rng.normal(size=(3, 4)))))
    return loss, {"a": a, "b": b}


def _reshaped_leaf(seed):
    # c's gradient is a reshaped view of the array d receives.
    rng = np.random.default_rng(seed)
    c = ag.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    d = ag.Tensor(rng.normal(size=6), requires_grad=True)
    loss = tensor_sum(ag.mul(ag.add(ag.reshape(c, (6,)), d), ag.Tensor(rng.normal(size=6))))
    return loss, {"c": c, "d": d}


def _fan_out(seed):
    # x feeds four ops, w two; u is wanted but never used.
    rng = np.random.default_rng(seed)
    x = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ag.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    u = ag.Tensor(rng.normal(size=5), requires_grad=True)
    h = ag.add(ag.mul(x, x), ag.gelu(x))
    y = ag.add(ag.matmul(h, w), ag.matmul(ag.softmax(x), w))
    loss = tensor_mean(ag.add(ag.mul(y, y), tensor_sum(x)))
    return loss, {"w": w, "u": u, "x": x}


class TestGradientHandout:
    """collect_gradients adds each leaf gradient into the caller's total once it is final."""

    @pytest.mark.parametrize("build", [_shared_add, _reshaped_leaf, _fan_out])
    def test_single_pass_bitwise_equal_to_oracle(self, build):
        loss, wanted = build(0)
        grads = gradients_into_zeros(loss, wanted)
        expected = allocating_collect_gradients(*build(0))
        assert list(grads) == list(expected)
        for name in expected:
            assert grads[name].tobytes() == (np.zeros_like(expected[name]) + expected[name]).tobytes(), name

    @pytest.mark.parametrize("build", [_shared_add, _reshaped_leaf, _fan_out])
    def test_in_place_accumulation_matches_allocating_reference(self, build):
        total = _accumulated(build, [1, 2, 3])
        expected = _allocating_reference(build, [1, 2, 3])
        assert sorted(total) == sorted(expected)
        for name in expected:
            assert total[name].tobytes() == expected[name].tobytes(), name

    def test_into_is_added_to_in_place_and_returned(self):
        loss, wanted = _fan_out(4)
        total = {name: np.full(t.shape, 0.5) for name, t in wanted.items()}
        arrays = dict(total)
        expected = allocating_collect_gradients(*_fan_out(4))
        assert ag.collect_gradients(loss, wanted, total) is total
        for name, g in total.items():
            assert g is arrays[name]
            assert g.tobytes() == (np.full(g.shape, 0.5) + expected[name]).tobytes(), name

    def test_unreachable_leaf_keeps_its_total(self):
        loss, wanted = _fan_out(5)
        total = _zeros(wanted)
        total["u"] = np.full(5, -0.0)
        ag.collect_gradients(loss, wanted, total)
        assert total["u"].tobytes() == np.full(5, -0.0).tobytes()  # nothing is added, not even zeros

    def test_leaf_loss_gets_ones(self):
        x = ag.Tensor(np.array(2.0), requires_grad=True)
        assert gradients_into_zeros(x, {"x": x})["x"].tobytes() == np.ones(()).tobytes()

    @pytest.mark.parametrize("bad", ["missing", "shape", "dtype", "list"])
    def test_into_must_hold_each_tensors_shape_and_dtype(self, bad):
        # Checked before the pass: nothing is added and the graph can still run backward.
        loss, wanted = _fan_out(7)
        total = _zeros(wanted)
        if bad == "missing":
            del total["w"]
        elif bad == "shape":
            total["w"] = np.zeros((2, 4))
        elif bad == "dtype":
            total["w"] = np.zeros((4, 2), dtype=np.float32)
        else:
            total["w"] = [[0.0] * 2] * 4
        before = {name: np.array(g, copy=True) for name, g in total.items()}
        with pytest.raises(ShapeError, match=r"into\['w'\].*\(4, 2\) float64"):
            ag.collect_gradients(loss, wanted, total)
        for name, g in total.items():
            assert np.asarray(g).tobytes() == before[name].tobytes()
        ag.collect_gradients(loss, wanted, _zeros(wanted))


class TestGradientsAgainstFiniteDifferences:
    def test_add_broadcast(self):
        check_op_gradient(lambda a, b: tensor_sum(ag.mul(ag.add(a, b), ag.add(a, b))), (3, 4), (4,))

    def test_mul(self):
        check_op_gradient(lambda a, b: tensor_sum(ag.mul(a, b)), (3, 4), (3, 4))

    def test_matmul(self):
        check_op_gradient(lambda a, b: tensor_sum(ag.matmul(a, b)), (3, 4), (4, 2))

    def test_batched_matmul(self):
        check_op_gradient(lambda a, b: tensor_sum(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), (3, 4, 5), (3, 5, 2))

    def test_batched_matmul_one_operand_constant(self):
        rng = np.random.default_rng(12)
        c = rng.normal(size=(2, 3, 4))
        check_op_gradient(lambda b: tensor_sum(ag.mul(ag.matmul(ag.Tensor(c), b), ag.matmul(ag.Tensor(c), b))), (2, 4, 3))

    def test_oracle_permute(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(4, 2, 3))
        check_op_gradient(lambda a: tensor_sum(ag.mul(permute(a, (2, 0, 1)), ag.Tensor(w))), (2, 3, 4))

    @pytest.mark.parametrize("x_shape", [(3, 4), (1, 3, 4), (2, 3, 4)])
    def test_linear(self, x_shape):
        rng = np.random.default_rng(22)
        w = rng.normal(size=x_shape[:-1] + (2,))
        check_op_gradient(lambda x, m, b: tensor_sum(ag.mul(ag.linear(x, m, b), ag.Tensor(w))), x_shape, (4, 2), (2,))

    def test_split_heads(self):
        rng = np.random.default_rng(23)
        w = rng.normal(size=(6, 3, 2))
        check_op_gradient(lambda a: tensor_sum(ag.mul(ag.split_heads(a, 3), ag.Tensor(w))), (2, 3, 6))

    def test_merge_heads(self):
        rng = np.random.default_rng(24)
        w = rng.normal(size=(2, 3, 6))
        check_op_gradient(lambda a: tensor_sum(ag.mul(ag.merge_heads(a, 2), ag.Tensor(w))), (6, 3, 2))

    def test_attention_scores(self):
        rng = np.random.default_rng(25)
        w = rng.normal(size=(2, 3, 4))
        check_op_gradient(lambda q, k: tensor_sum(ag.mul(ag.attention_scores(q, k, 0.5), ag.Tensor(w))),
                          (2, 3, 5), (2, 4, 5))

    def test_transpose(self):
        check_op_gradient(lambda a, b: tensor_sum(ag.matmul(ag.transpose(a), b)), (4, 3), (4, 2))

    def test_reshape(self):
        check_op_gradient(lambda a: tensor_sum(ag.mul(ag.reshape(a, (6,)), ag.reshape(a, (6,)))), (2, 3))

    def test_concat(self):
        check_op_gradient(
            lambda a, b: tensor_sum(ag.mul(ag.concat([a, b], axis=1), ag.concat([a, b], axis=1))),
            (2, 3),
            (2, 2),
        )

    def test_slice(self):
        check_op_gradient(lambda a: tensor_sum(ag.mul(a[1:3, :2], a[1:3, :2])), (4, 3))

    def test_softmax(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 5))
        check_op_gradient(lambda a: tensor_sum(ag.mul(ag.softmax(a), ag.Tensor(w))), (3, 5))

    def test_layer_norm(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 5))
        check_op_gradient(
            lambda a, g, b: tensor_sum(ag.mul(ag.layer_norm(a, g, b), ag.Tensor(w))),
            (3, 5),
            (5,),
            (5,),
        )

    def test_gelu_tanh(self):
        check_op_gradient(lambda a: tensor_sum(ag.mul(ag.gelu(a), ag.gelu(a))), (4, 4))

    def test_gelu_exact(self):
        check_op_gradient(lambda a: tensor_sum(ag.gelu(a, exact=True)), (4, 4))

    def test_sigmoid(self):
        check_op_gradient(lambda a: tensor_sum(ag.mul(ag.sigmoid(a), ag.sigmoid(a))), (3, 3))

    def test_mean_all(self):
        check_op_gradient(lambda a: tensor_mean(ag.mul(a, a)), (3, 4))

    def test_mean_axis(self):
        check_op_gradient(lambda a: tensor_sum(ag.mul(tensor_mean(a, axis=0), tensor_mean(a, axis=0))), (3, 4))

    def test_embedding_row_select(self):
        idx = np.array([0, 2, 2, 1])
        check_op_gradient(lambda a: tensor_sum(ag.mul(ag.embedding_row_select(a, idx), ag.embedding_row_select(a, idx))), (4, 3))

    def test_binary_cross_entropy(self):
        rng = np.random.default_rng(7)
        targets = rng.integers(0, 2, size=(3, 4)).astype(float)
        check_op_gradient(
            lambda a: ag.binary_cross_entropy(ag.sigmoid(a), targets),
            (3, 4),
        )

    def test_dropout_backward_uses_same_mask(self):
        rng = np.random.default_rng(8)
        xv = rng.normal(size=(5, 5))
        x = ag.Tensor(xv, requires_grad=True)
        out = ag.dropout(x, 0.4, rng=[np.random.default_rng(99)])
        mask = out.data / np.where(xv == 0, 1.0, xv)
        grads = gradients_into_zeros(tensor_sum(out), {"x": x})
        np.testing.assert_allclose(grads["x"], mask)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        lead=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=1, max_value=5),
        cols=st.integers(min_value=1, max_value=5),
    )
    def test_broadcast_add_gradients_random_shapes(self, seed, lead, rows, cols):
        # Leading-axis broadcasting keeps exact gradients for any such shape.
        rng = np.random.default_rng(seed)
        big = rng.normal(size=(lead, rows, cols))
        small = rng.normal(size=(cols,))
        w = rng.normal(size=big.shape)
        a = ag.Tensor(big, requires_grad=True)
        b = ag.Tensor(small, requires_grad=True)
        grads = gradients_into_zeros(tensor_sum(ag.mul(ag.add(a, b), ag.Tensor(w))), {"a": a, "b": b})
        np.testing.assert_allclose(grads["a"], w, atol=1e-12)
        np.testing.assert_allclose(grads["b"], w.sum(axis=(0, 1)), atol=1e-12)


def _gelu_and_grad(x, upstream):
    """Tanh-form `gelu` forward of x and the input gradient its backward closure passes back for `upstream`.

    The closure's own output, so its signed zeros are checked too.
    """
    out = ag.gelu(ag.Tensor(x, requires_grad=True, dtype=x.dtype))
    passed = []
    out._backward(upstream, lambda tensor, g: passed.append(g))
    return out.data, passed[0]


def _gelu_backward_in_a_graph(x, upstream):
    """Run `gelu`'s backward in a reverse pass. The input goes through `mul` by
    ones (exact), so the gradient `gelu` passes back reaches a node that checks
    it is finite, as in a model."""
    a = ag.Tensor(x, requires_grad=True, dtype=x.dtype)
    out = ag.gelu(ag.mul(a, ag.Tensor(np.ones_like(x), dtype=x.dtype)))
    gradients_into_zeros(tensor_sum(ag.mul(out, ag.Tensor(upstream, dtype=x.dtype))), {"a": a})


def _pow_form_gelu(x):
    """The tanh form with the cube through NumPy's general pow."""
    t = np.tanh(ag._GELU_C * (x + ag._GELU_A * x**3))
    return 0.5 * x * (1.0 + t)


class TestGeluNumerics:
    """The tanh form cubes with products; these pin its bytes and its accuracy."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_product_form_oracle_bitwise(self, dtype):
        rng = np.random.default_rng(21)
        x = np.concatenate([rng.normal(scale=3.0, size=(4, 600)).ravel(), np.linspace(-12, 12, 2401),
                            [0.0, -0.0, 1e-300, -1e-300, 1e3, -1e3]]).astype(dtype)
        upstream = rng.normal(size=x.shape).astype(dtype)
        y, dx = _gelu_and_grad(x, upstream)
        want_y, want_dx = product_gelu(x, upstream)
        assert y.dtype == dx.dtype == dtype
        assert y.tobytes() == want_y.tobytes()
        assert dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_within_two_ulps_of_mpmath(self, dtype):
        # Measured maxima on these points: 1.0 ulp(x) in float64, 1.33 ulp(x) and
        # 1.49 ulp(y) for x > 0 in float32. The error is counted in ulps of x
        # because for x << 0 the result is a cancelled tail (1 + tanh near 0).
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        c, a = mpmath.mpf(ag._GELU_C), mpmath.mpf(ag._GELU_A)
        info = np.finfo(dtype)
        big = [1e3, 1e10, float(info.max) ** (1 / 3) * 1.01, float(info.max) ** 0.5 * 1.01, float(info.max) / 4]
        x = np.concatenate([np.linspace(-10, 10, 2001), np.random.default_rng(22).uniform(-10, 10, 2000),
                            big, [-v for v in big]]).astype(dtype)
        with np.errstate(over="ignore"):
            y = ag.gelu(ag.Tensor(x, dtype=dtype)).data
        ref = np.array([float(0.5 * v * (1 + mpmath.tanh(c * (v + a * v**3))))
                        for v in map(mpmath.mpf, x.astype(np.float64))])
        err = np.abs(y.astype(np.float64) - ref)
        assert np.max(err / np.spacing(np.abs(x)).astype(np.float64)) <= 2.0
        pos = x > 0
        assert np.max(err[pos] / np.spacing(np.abs(ref[pos]).astype(dtype)).astype(np.float64)) <= 2.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_large_inputs_saturate_and_fail_as_the_pow_form(self, dtype):
        # Past |x| ~ 20 tanh is exactly +-1, so the forward is x or -0 whether
        # the cube overflows or not; the backward is non-finite, a
        # NumericalError, exactly where x**2 overflows, as before.
        info = np.finfo(dtype)
        cube_overflow, square_overflow = float(info.max) ** (1 / 3), float(info.max) ** 0.5
        for v in (20.0, 1e3, cube_overflow * 0.99, cube_overflow * 1.01, square_overflow * 0.99,
                  square_overflow * 1.01, float(info.max)):
            for x in (np.array([v], dtype=dtype), np.array([-v], dtype=dtype)):
                with np.errstate(over="ignore", invalid="ignore"):
                    y = ag.gelu(ag.Tensor(x, dtype=dtype)).data
                    assert y.tobytes() == _pow_form_gelu(x).tobytes()
                    _, want_dx = product_gelu(x, np.ones_like(x))
                    _, dx = _gelu_and_grad(x, np.ones_like(x))
                    assert dx.tobytes() == want_dx.tobytes()
                    if np.isfinite(want_dx).all():
                        _gelu_backward_in_a_graph(x, np.ones_like(x))
                    else:
                        assert not np.isfinite(x * x).all()
                        with pytest.raises(NumericalError, match="non-finite"):
                            _gelu_backward_in_a_graph(x, np.ones_like(x))


class TestBatchedOps:
    def test_batched_matmul_equals_per_slice_products(self):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 4, 6))
        out = ag.matmul(ag.Tensor(a), ag.Tensor(b)).data
        for i in range(3):
            assert np.array_equal(out[i], a[i] @ b[i])

    def test_batched_matmul_mismatched_batch_axes(self):
        with pytest.raises(ShapeError, match="batch"):
            ag.matmul(ag.Tensor(np.zeros((2, 3, 4))), ag.Tensor(np.zeros((3, 4, 5))))

    def test_matmul_mixed_ranks_rejected(self):
        with pytest.raises(ShapeError):
            ag.matmul(ag.Tensor(np.zeros((3, 4))), ag.Tensor(np.zeros((2, 4, 5))))
        with pytest.raises(ShapeError):
            ag.matmul(ag.Tensor(np.zeros((2, 2, 3, 4))), ag.Tensor(np.zeros((2, 2, 4, 5))))

    @pytest.mark.parametrize("regroup", [lambda a: ag.split_heads(a, 2), lambda a: ag.merge_heads(a, 2)],
                             ids=["split_heads", "merge_heads"])
    def test_head_regroupings_hand_on_c_contiguous_values_and_gradients(self, regroup):
        rng = np.random.default_rng(15)
        a = ag.Tensor(rng.normal(size=(4, 3, 4)), requires_grad=True)
        out = regroup(a)
        assert out.data.flags.c_contiguous
        # The incoming gradient is a strided view; the one handed on is not.
        grads = allocating_collect_gradients(tensor_sum(ag.transpose(out)), {"a": a})
        assert grads["a"].flags.c_contiguous
        np.testing.assert_array_equal(grads["a"], 1.0)

    @pytest.mark.parametrize("rows, d, f", [(1, 768, 64), (1, 86, 26), (5, 16, 16), (121, 64, 48)])
    def test_shared_matrix_product_equals_per_slot_products(self, rows, d, f):
        # [B, T, D] @ W: each slot's value and input gradient are those of its 2-d product alone, and W's
        # gradient is the slot-order sum of the slots' own gradients. T = 1 is the head's one-row product,
        # which BLAS computes with another kernel than a row of a larger product.
        rng = np.random.default_rng(18)
        x = ag.Tensor(rng.normal(size=(4, rows, d)), requires_grad=True)
        w = ag.Tensor(rng.normal(size=(d, f)), requires_grad=True)
        seed = rng.normal(size=(4, rows, f))
        out = ag.matmul(x, w)
        grads = gradients_into_zeros(tensor_sum(ag.mul(out, ag.Tensor(seed))), {"x": x, "w": w})
        total = {"w": np.zeros_like(w.data)}
        for slot in range(4):
            xs, ws = ag.Tensor(x.data[slot], requires_grad=True), ag.Tensor(w.data, requires_grad=True)
            alone = ag.matmul(xs, ws)
            assert alone.data.tobytes() == out.data[slot].tobytes()
            slot_grads = gradients_into_zeros(tensor_sum(ag.mul(alone, ag.Tensor(seed[slot]))), {"x": xs, "w": ws})
            assert slot_grads["x"].tobytes() == grads["x"][slot].tobytes()
            ag.collect_gradients(tensor_sum(ag.mul(ag.matmul(xs, ws), ag.Tensor(seed[slot]))), {"w": ws}, total)
        assert grads["w"].tobytes() == total["w"].tobytes()

    def test_shared_vector_gradients_sum_each_slot_first(self):
        # A bias or layer-norm gain shared by every slot: each slot's sum over its rows, then the slots in order.
        rng = np.random.default_rng(19)
        x = ag.Tensor(rng.normal(size=(3, 7, 5)), requires_grad=True)
        gain = ag.Tensor(rng.normal(size=5), requires_grad=True)
        bias = ag.Tensor(rng.normal(size=5), requires_grad=True)
        seed = rng.normal(size=(3, 7, 5))
        named = {"gain": gain, "bias": bias}
        grads = gradients_into_zeros(tensor_sum(ag.mul(ag.layer_norm(x, gain, bias), ag.Tensor(seed))), named)
        total = _zeros(named)
        for slot in range(3):
            normed = ag.layer_norm(ag.Tensor(x.data[slot]), gain, bias)
            ag.collect_gradients(tensor_sum(ag.mul(normed, ag.Tensor(seed[slot]))), named, total)
        for name in named:
            assert grads[name].tobytes() == total[name].tobytes(), name

    def test_broadcast_to_gradient_sums_slots_in_order(self):
        rng = np.random.default_rng(20)
        token = ag.Tensor(rng.normal(size=4), requires_grad=True)
        seed = rng.normal(size=(3, 1, 4))
        out = ag.broadcast_to(token, (3, 1, 4))
        assert np.array_equal(out.data, np.broadcast_to(token.data, (3, 1, 4)))
        grads = gradients_into_zeros(tensor_sum(ag.mul(out, ag.Tensor(seed))), {"token": token})
        assert grads["token"].tobytes() == ((seed[0, 0] + seed[1, 0]) + seed[2, 0]).tobytes()

    @pytest.mark.parametrize("build", [
        lambda: ag.linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5)),  # inner dimensions
        lambda: ag.linear(np.zeros((2, 4)), np.zeros((4, 5)), np.zeros(4)),  # bias width
        lambda: ag.linear(np.zeros((2, 2, 2, 4)), np.zeros((4, 5)), np.zeros(5)),  # 4-d input
        lambda: ag.linear(np.zeros((2, 4)), np.zeros((2, 4, 5)), np.zeros(5)),  # 3-d weight
        lambda: ag.split_heads(np.zeros((2, 3, 6)), 4),
        lambda: ag.split_heads(np.zeros((3, 6)), 2),
        lambda: ag.merge_heads(np.zeros((6, 3, 2)), 4),
        lambda: ag.merge_heads(np.zeros((6, 3)), 2),
        lambda: ag.attention_scores(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), 1.0),
        lambda: ag.attention_scores(np.zeros((2, 3, 4)), np.zeros((1, 3, 4)), 1.0),
        lambda: ag.attention_scores(np.zeros((3, 4)), np.zeros((3, 4)), 1.0),
        lambda: ag.dropout_matmul(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), 0.1, [np.random.default_rng(0)]),
        lambda: ag.dropout_matmul(np.zeros((2, 3, 3)), np.zeros((1, 3, 4)), 0.1, [np.random.default_rng(0)]),
        lambda: ag.dropout_matmul(np.zeros((3, 3)), np.zeros((3, 4)), 0.1, [np.random.default_rng(0)]),
        lambda: ag.dropout_matmul(np.zeros((3, 3, 3)), np.zeros((3, 3, 4)), 0.1, [np.random.default_rng(0)] * 2),
    ], ids=["linear inner", "linear bias", "linear 4-d input", "linear 3-d weight", "split_heads uneven",
            "split_heads 2-d", "merge_heads uneven", "merge_heads 2-d", "attention_scores width",
            "attention_scores slots", "attention_scores 2-d", "dropout_matmul inner", "dropout_matmul slots",
            "dropout_matmul 2-d", "dropout_matmul generators"])
    def test_fused_nodes_reject_mismatched_shapes(self, build):
        with pytest.raises(ShapeError):
            build()


def _run_graph(build, arrays, needs_grad, upstream):
    """build(*tensors) over `arrays` (each in its own dtype), and the gradients a seeded upstream hands each input."""
    tensors = [ag.Tensor(a.copy(), requires_grad=r, dtype=a.dtype) for a, r in zip(arrays, needs_grad)]
    out = build(*tensors)
    wanted = {str(i): t for i, t in enumerate(tensors) if t.requires_grad}
    return out.data, gradients_into_zeros(tensor_sum(ag.mul(out, ag.Tensor(upstream, dtype=upstream.dtype))), wanted)


def _attention_core(fused):
    """Projections, heads, scores, softmax, values and the merge, fused or as the unfused chains."""
    linear, split, merge, scores = ((ag.linear, ag.split_heads, ag.merge_heads, ag.attention_scores) if fused
                                    else (chain_linear, chain_split_heads, chain_merge_heads, chain_attention_scores))

    def build(x, wq, bq, wk, bk, wv, bv, wo, bo):
        q, k, v = (split(linear(x, w, b), 2) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
        attn = ag.softmax(scores(q, k, 1.0 / np.sqrt(2.0)))
        return linear(merge(ag.matmul(attn, v), x.shape[0]), wo, bo)

    return build


FUSED_CASES = {
    # name: (fused, chain, input shapes)
    "linear 2-d": (ag.linear, chain_linear, [(5, 4), (4, 3), (3,)]),
    "linear one slot": (ag.linear, chain_linear, [(1, 5, 4), (4, 3), (3,)]),
    "linear one row per slot": (ag.linear, chain_linear, [(3, 1, 4), (4, 3), (3,)]),
    "linear slots": (ag.linear, chain_linear, [(3, 5, 4), (4, 3), (3,)]),
    "split_heads one slot": (lambda y: ag.split_heads(y, 2), lambda y: chain_split_heads(y, 2), [(1, 5, 6)]),
    "split_heads slots": (lambda y: ag.split_heads(y, 3), lambda y: chain_split_heads(y, 3), [(4, 5, 6)]),
    "merge_heads one slot": (lambda y: ag.merge_heads(y, 1), lambda y: chain_merge_heads(y, 1), [(2, 5, 3)]),
    "merge_heads slots": (lambda y: ag.merge_heads(y, 3), lambda y: chain_merge_heads(y, 3), [(6, 5, 3)]),
    "attention_scores one slot": (lambda q, k: ag.attention_scores(q, k, 0.125),
                                  lambda q, k: chain_attention_scores(q, k, 0.125), [(1, 5, 8), (1, 5, 8)]),
    "attention_scores slots": (lambda q, k: ag.attention_scores(q, k, 1.0 / np.sqrt(3.0)),
                               lambda q, k: chain_attention_scores(q, k, 1.0 / np.sqrt(3.0)), [(6, 5, 3), (6, 5, 3)]),
    "positions": (ag.add, chain_positions, [(3, 5, 4), (5, 4)]),
    "attention core": (_attention_core(True), _attention_core(False),
                       [(3, 5, 4)] + [(4, 4), (4,)] * 4),
}


class TestFusedNodesMatchTheirChains:
    """Each fused node's value and input gradients are, byte for byte, those of the chain of ops it replaces."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", sorted(FUSED_CASES))
    def test_value_and_gradients_bitwise(self, case, dtype):
        fused, chain, shapes = FUSED_CASES[case]
        rng = np.random.default_rng(26)
        arrays = [rng.normal(size=shape).astype(dtype) for shape in shapes]
        out_shape = chain(*[ag.Tensor(a, dtype=dtype) for a in arrays]).shape
        upstream = rng.normal(size=out_shape).astype(dtype)
        # Every input wanted, then (with several inputs) each input alone left without a gradient.
        for frozen in [None, *(range(len(arrays)) if len(arrays) > 1 else ())]:
            needs_grad = [i != frozen for i in range(len(arrays))]
            value, grads = _run_graph(fused, arrays, needs_grad, upstream)
            want_value, want_grads = _run_graph(chain, arrays, needs_grad, upstream)
            assert value.dtype == want_value.dtype and value.tobytes() == want_value.tobytes(), (case, frozen)
            assert grads.keys() == want_grads.keys()
            for name, g in grads.items():
                assert g.tobytes() == want_grads[name].tobytes(), (case, frozen, name)


def _poisoned_sum(a):
    """A scalar node that hands `a` an infinite gradient."""
    na, x = a._node, a.data

    def backward_fn(grad, grads):
        grads(na, np.full_like(x, np.inf))

    return ag.Tensor._result(np.asarray(a.data.sum()), (a,), backward_fn, "poisoned_sum")


def _non_finite_constant(shape):
    """A constant holding a NaN, made without the leaf check that would refuse it."""
    t = ag.Tensor(np.zeros(shape)).detach()
    t.data = np.full(shape, np.nan)
    return t


class TestFusedNodesKeepTheFiniteCheck:
    def test_overflowing_forward_output_raises(self):
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="linear"):
                ag.linear(ag.Tensor([[1e308, 1e308]]), ag.Tensor([[10.0], [10.0]]), ag.Tensor([0.0]))
            with pytest.raises(NumericalError, match="attention_scores"):
                ag.attention_scores(ag.Tensor(np.full((1, 2, 2), 1e200)), ag.Tensor(np.full((1, 2, 2), 1e200)), 0.5)

    @pytest.mark.parametrize("op", ["split_heads", "merge_heads"])
    def test_non_finite_input_raises(self, op):
        with pytest.raises(NumericalError, match=op):
            getattr(ag, op)(_non_finite_constant((2, 3, 4)), 2)

    @pytest.mark.parametrize("case", ["linear slots", "split_heads slots", "merge_heads slots", "attention_scores slots"])
    def test_non_finite_incoming_gradient_raises(self, case):
        fused, _, shapes = FUSED_CASES[case]
        rng = np.random.default_rng(28)
        tensors = [ag.Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        out = fused(*tensors)
        with pytest.raises(NumericalError, match=f"backward of {out._op}"):
            gradients_into_zeros(_poisoned_sum(out), {str(i): t for i, t in enumerate(tensors)})


def _closure_run(build, arrays, needs_grad, upstream):
    """build(*tensors) over `arrays`, and each input's gradient as the backward closures hand it over (signed zeros
    included) for a seeded upstream."""
    tensors = [ag.Tensor(a.copy(), requires_grad=r, dtype=a.dtype) for a, r in zip(arrays, needs_grad)]
    out = build(*tensors)
    wanted = {str(i): t for i, t in enumerate(tensors) if t.requires_grad}
    loss = tensor_sum(ag.mul(out, ag.Tensor(upstream, dtype=upstream.dtype)))
    return out.data, allocating_collect_gradients(loss, wanted)


def _attention_maps(rng, slots, heads, t, dtype, mask_padding):
    """Softmax rows over [slots * heads, t, t] scores; with `mask_padding`, each slot's keys from a random padding
    start on are sent to -1e30 first, so their columns are exact zeros."""
    scores = rng.normal(size=(slots * heads, t, t))
    if mask_padding:
        keys = np.arange(t)[None, :] < rng.integers(1, t, size=(slots, 1))
        scores = scores + np.repeat(np.where(keys, 0.0, -1e30)[:, None, :], heads, axis=0)
    return ag.softmax(ag.Tensor(scores, dtype=dtype)).data


class TestRecomputingBackwards:
    """Nodes that keep a boolean draw or their input and rebuild the rest in the backward give, byte for byte, the
    values and gradients of reference nodes that keep the float arrays."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("slots", [1, 3])
    @pytest.mark.parametrize("mask_padding", [False, True])
    def test_dropout_matmul_equals_dropout_then_matmul(self, mask_padding, slots, dtype):
        rng = np.random.default_rng(60 + slots)
        heads, t, d, p = 4, 9, 5, 0.3
        arrays = [_attention_maps(rng, slots, heads, t, dtype, mask_padding),
                  rng.normal(size=(slots * heads, t, d)).astype(dtype)]
        upstream = rng.normal(size=(slots * heads, t, d)).astype(dtype)
        if mask_padding:
            assert (arrays[0] == 0.0).any()

        def gens():
            return [np.random.default_rng(70 + slot) for slot in range(slots)]

        for needs_grad in ([True, True], [False, True], [True, False]):
            value, grads = _closure_run(lambda a, b: ag.dropout_matmul(a, b, p, gens()), arrays, needs_grad, upstream)
            want_value, want_grads = _closure_run(lambda a, b: chain_dropout_matmul(a, b, p, gens()), arrays,
                                                  needs_grad, upstream)
            assert value.dtype == dtype and value.tobytes() == want_value.tobytes(), needs_grad
            assert grads.keys() == want_grads.keys() and len(grads) == sum(needs_grad)
            for name, g in grads.items():
                assert g.dtype == dtype and g.tobytes() == want_grads[name].tobytes(), (needs_grad, name)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("slots", [1, 3])
    def test_boolean_mask_dropout_equals_the_float_mask(self, slots, dtype):
        rng = np.random.default_rng(62)
        x = np.concatenate([rng.normal(size=(slots * 4, 7)), np.full((slots, 7), -0.0)]).astype(dtype)
        upstream = rng.normal(size=x.shape).astype(dtype)
        upstream[0, :3] = -0.0
        for p in (0.1, 0.5):
            value, grads = _closure_run(lambda a: ag.dropout(a, p, [np.random.default_rng(s) for s in range(slots)]),
                                        [x], [True], upstream)
            want_value, want_grads = _closure_run(
                lambda a: float_mask_dropout(a, p, [np.random.default_rng(s) for s in range(slots)]), [x], [True],
                upstream)
            assert value.dtype == dtype and value.tobytes() == want_value.tobytes(), p
            assert grads["0"].dtype == dtype and grads["0"].tobytes() == want_grads["0"].tobytes(), p

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gelu_recomputing_tanh_equals_keeping_it(self, dtype):
        rng = np.random.default_rng(63)
        info = np.finfo(dtype)
        x = np.concatenate([rng.normal(scale=3.0, size=600), np.linspace(-12, 12, 2401),
                            [0.0, -0.0, 1e-300, -1e-300, 1e3, -1e3, float(info.max) ** (1 / 3) * 0.99]]).astype(dtype)
        upstream = rng.normal(size=x.shape).astype(dtype)
        upstream[:5] = -0.0
        value, grads = _closure_run(ag.gelu, [x], [True], upstream)
        want_value, want_grads = _closure_run(keep_t_gelu, [x], [True], upstream)
        assert value.dtype == dtype and value.tobytes() == want_value.tobytes()
        assert grads["0"].dtype == dtype and grads["0"].tobytes() == want_grads["0"].tobytes()

    def test_graph_keeps_one_byte_draws_and_no_tanh(self):
        # What the nodes' backwards are bound to: the boolean draw, the operands and GELU's input, nothing else.
        rng = np.random.default_rng(64)
        attn = ag.Tensor(_attention_maps(rng, 2, 3, 6, np.float64, False), requires_grad=True)
        v = ag.Tensor(rng.normal(size=(6, 6, 4)), requires_grad=True)
        out = ag.dropout_matmul(attn, v, 0.2, [np.random.default_rng(s) for s in (1, 2)])
        dropped = ag.dropout(out, 0.2, [np.random.default_rng(3)])
        act = ag.gelu(dropped)
        for node, kept, draws in ((out, [attn.data, v.data], 1), (dropped, [], 1), (act, [dropped.data], 0)):
            arrays = [a for a in node._backward.args if isinstance(a, np.ndarray)]
            floats = [a for a in arrays if a.dtype != np.bool_]
            assert len(floats) == len(kept) and all(a is b for a, b in zip(floats, kept)), node._op
            assert len(arrays) - len(floats) == draws, node._op


def _adam_from(params, grads, state, **kwargs):
    """One Adam step from fresh gradient arrays, first written into the state's own total."""
    for name, g in grads.items():
        state["grad"][name][...] = g
    return ag.adam_step(params, state["grad"], state, **kwargs)


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(7, 3), (ag.ADAM_BLOCK + 123,), (3, ag.ADAM_BLOCK // 2 + 5)])
    def test_bitwise_equal_to_textbook_update(self, dtype, shape):
        rng = np.random.default_rng(16)
        start = rng.normal(size=shape).astype(dtype)
        grads = [(rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 1, size=shape)).astype(dtype) for _ in range(3)]
        param = ag.Tensor(start.copy(), requires_grad=True, dtype=dtype)
        state = ag.adam_init({"w": param})
        for g in grads:
            _adam_from({"w": param}, {"w": g}, state, lr=3e-3)
        want_p, want_m, want_v = textbook_adam(start, grads, lr=3e-3)
        for got, want in ((param.data, want_p), (state["m"]["w"], want_m), (state["v"]["w"], want_v)):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_updates_in_place(self):
        p = {"w": ag.Tensor(np.ones(5), requires_grad=True)}
        state = ag.adam_init(p)
        arrays = (p["w"].data, state["m"]["w"], state["v"]["w"])
        _adam_from(p, {"w": np.full(5, 0.5)}, state, lr=0.1)
        assert p["w"].data is arrays[0] and state["m"]["w"] is arrays[1] and state["v"]["w"] is arrays[2]

    def test_non_contiguous_parameter(self):
        start = np.random.default_rng(17).normal(size=(4, 6))
        g = np.linspace(-1.0, 1.0, 24).reshape(6, 4)
        param = ag.Tensor(start.copy().T, requires_grad=True)  # a strided view
        state = ag.adam_init({"w": param})
        _adam_from({"w": param}, {"w": g}, state, lr=0.01)
        want_p, _, _ = textbook_adam(start.T, [g], lr=0.01)
        assert np.array_equal(param.data, want_p)

    def test_zero_gradient_leaves_params(self):
        p = {"w": ag.Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        state = ag.adam_init(p)
        before = p["w"].data.copy()
        _adam_from(p, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(p["w"].data, before)

    def test_first_step_closed_form(self):
        g = np.array([0.5, -2.0, 1e-3])
        p = {"w": ag.Tensor(np.zeros(3), requires_grad=True)}
        state = ag.adam_init(p)
        lr, eps = 0.01, 1e-8
        _adam_from(p, {"w": g}, state, lr=lr, eps=eps)
        want = -lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(p["w"].data, want, rtol=1e-12)

    def test_convex_quadratic_convergence(self):
        rng = np.random.default_rng(9)
        c = rng.normal(size=6)
        w = ag.Tensor(c + rng.uniform(-0.25, 0.25, size=6), requires_grad=True)
        params = {"w": w}
        state = ag.adam_init(params)
        for _ in range(200):
            diff = w.data - c
            _adam_from(params, {"w": 2.0 * diff}, state, lr=0.05)
        assert np.linalg.norm(w.data - c) < 1e-3


FLAT_SHAPES = {"a": (1000, 7), "b": (ag.ADAM_BLOCK,), "c": (3, 11), "d": (5,), "e": (), "f": (ag.ADAM_BLOCK // 3, 4)}


def _offset(view: np.ndarray, flat: np.ndarray) -> int:
    """Element offset of a view into the flat buffer it was cut from."""
    return (view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]) // flat.itemsize


def _flat_problem(dtype, steps=3, seed=21):
    """Start values and `steps` gradient dicts over FLAT_SHAPES, with some gradient entries -0.0."""
    rng = np.random.default_rng(seed)
    start = {k: rng.normal(size=s).astype(dtype) for k, s in FLAT_SHAPES.items()}
    grads = []
    for _ in range(steps):
        step = {}
        for k, s in FLAT_SHAPES.items():
            g = np.array(rng.normal(size=s) * 10.0 ** rng.uniform(-4, 1, size=s))
            g[rng.uniform(size=s) < 0.1] = -0.0
            step[k] = np.asarray(g, dtype=dtype)
        grads.append(step)
    return start, grads


class TestFlatAdam:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_textbook_update_per_tensor(self, dtype):
        start, grads = _flat_problem(dtype)
        params = {k: ag.Tensor(v.copy(), requires_grad=True, dtype=dtype) for k, v in start.items()}
        state = ag.adam_init(params)
        flat = state["flat"][0]
        bounds = {k: (_offset(p.data, flat), _offset(p.data, flat) + p.data.size) for k, p in params.items()}
        cuts = range(ag.ADAM_BLOCK, flat.size, ag.ADAM_BLOCK)
        assert any(lo < cut < hi for lo, hi in bounds.values() for cut in cuts)  # a block ends inside a tensor
        for step in grads:
            _adam_from(params, step, state, lr=3e-3)
        for k in FLAT_SHAPES:
            want_p, want_m, want_v = textbook_adam(start[k], [step[k] for step in grads], lr=3e-3)
            for got, want in ((params[k].data, want_p), (state["m"][k], want_m), (state["v"][k], want_v)):
                assert got.dtype == want.dtype == dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), k

    def test_init_rebinds_parameter_data_to_flat_views(self):
        start, _ = _flat_problem(np.float64, steps=0)
        params = {k: ag.Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
        state = ag.adam_init(params)
        flat_params, flat_m, flat_v, flat_grad = state["flat"]
        assert flat_params.size == sum(v.size for v in start.values())
        assert not (flat_m.any() or flat_v.any() or flat_grad.any())
        for k, p in params.items():
            assert p.data.base is flat_params and p.data.flags.c_contiguous
            assert p.data.tobytes() == start[k].tobytes()
            for views, flat in ((state["m"], flat_m), (state["v"], flat_v), (state["grad"], flat_grad)):
                assert views[k].base is flat and _offset(views[k], flat) == _offset(p.data, flat_params)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_changes_nothing(self, bad):
        start, grads = _flat_problem(np.float64, steps=2)
        params = {k: ag.Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
        state = ag.adam_init(params)
        _adam_from(params, grads[0], state, lr=3e-3)
        before = [flat.copy() for flat in state["flat"][:3]]
        grads[1]["c"][2, 5] = bad
        with pytest.raises(NumericalError, match="'c'"):
            _adam_from(params, grads[1], state, lr=3e-3)
        assert state["t"] == 1
        for flat, old in zip(state["flat"][:3], before):
            assert flat.tobytes() == old.tobytes()

    def test_overflowing_finite_gradient_sum_is_accepted(self):
        params = {"w": ag.Tensor(np.zeros(2), requires_grad=True)}
        state = ag.adam_init(params)
        with np.errstate(over="ignore"):
            _adam_from(params, {"w": np.array([1.5e308, 1.5e308])}, state, lr=0.1)
        assert state["t"] == 1 and np.isfinite(params["w"].data).all()

    def test_mixed_dtypes_rejected(self):
        params = {"a": ag.Tensor(np.ones(2), requires_grad=True),
                  "b": ag.Tensor(np.ones(2, dtype=np.float32), requires_grad=True, dtype=np.float32)}
        with pytest.raises(ShapeError, match="dtype"):
            ag.adam_init(params)

    def test_only_the_states_own_gradients_are_accepted(self):
        # A foreign dict is a ShapeError before t, m, v or a parameter changes, even one holding the state's views.
        start, grads = _flat_problem(np.float64, steps=2)
        params = {k: ag.Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
        state = ag.adam_init(params)
        _adam_from(params, grads[0], state, lr=3e-3)
        for k, g in grads[1].items():
            state["grad"][k][...] = g
        before = [flat.copy() for flat in state["flat"]]
        for foreign in (grads[1], dict(state["grad"]), {k: g.astype(np.float32) for k, g in grads[1].items()}):
            with pytest.raises(ShapeError, match="state's own"):
                ag.adam_step(params, foreign, state, lr=3e-3)
        with pytest.raises(ShapeError, match="state holds"):
            ag.adam_step({k: params[k] for k in "abc"}, state["grad"], state, lr=3e-3)
        assert state["t"] == 1
        for flat, old in zip(state["flat"], before):
            assert flat.tobytes() == old.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        arrays = {
            "proj.weight": rng.normal(size=(7, 5)),
            "proj.bias": rng.normal(size=5),
            "scalar": np.array(3.25),
        }
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        ag.save_checkpoint(p1, arrays)
        loaded = ag.load_checkpoint(p1)
        ag.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        for k, v in arrays.items():
            np.testing.assert_array_equal(loaded[k], v.astype(np.float32).astype(np.float64))

    def test_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(RecordFormatError):
            ag.load_checkpoint(bad)

    def test_names_and_shapes_preserved(self, tmp_path):
        arrays = {"a.b.c": np.zeros((2, 3, 4)), "d": np.ones(1)}
        path = tmp_path / "c.ckpt"
        ag.save_checkpoint(path, arrays)
        loaded = ag.load_checkpoint(path)
        assert set(loaded) == {"a.b.c", "d"}
        assert loaded["a.b.c"].shape == (2, 3, 4)

    def test_load_holds_one_tensors_bytes_beside_the_arrays(self, tmp_path):
        # Reading the whole file first would hold its float32 bytes (half the float64 arrays) on top.
        rng = np.random.default_rng(11)
        arrays = {f"w{i}": rng.normal(size=(64, 256)) for i in range(8)}
        path = tmp_path / "m.ckpt"
        ag.save_checkpoint(path, arrays)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loaded = ag.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        total = sum(a.nbytes for a in loaded.values())
        assert total == sum(a.nbytes for a in arrays.values())
        assert peak < total + 2 * 64 * 256 * 4, peak / total


def _wft1(*tensors, count=None):
    """Hand-built WFT1 bytes from (name, dims, float32 payload) triples."""
    blob = ag.CHECKPOINT_MAGIC + struct.pack("<I", len(tensors) if count is None else count)
    for name, dims, payload in tensors:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", len(dims))
        blob += b"".join(struct.pack("<I", d) for d in dims) + payload
    return blob


class TestCheckpointStrictParsing:
    def _saved(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        ag.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)})
        return path.read_bytes()

    def test_every_truncation_is_a_record_format_error(self, tmp_path):
        blob = self._saved(tmp_path)
        path = tmp_path / "cut.ckpt"
        for size in range(4, len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(RecordFormatError, match="truncated"):
                ag.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.ckpt"
        path.write_bytes(self._saved(tmp_path) + b"\x00")
        with pytest.raises(RecordFormatError, match="trailing"):
            ag.load_checkpoint(path)

    def test_fewer_tensors_than_counted_rejected(self, tmp_path):
        path = tmp_path / "count.ckpt"
        path.write_bytes(_wft1(("w", (1,), b"\x00" * 4), count=2))
        with pytest.raises(RecordFormatError):
            ag.load_checkpoint(path)

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.ckpt"
        path.write_bytes(_wft1(("w", (1,), b"\x00" * 4), ("w", (1,), b"\x00" * 4)))
        with pytest.raises(RecordFormatError, match="twice"):
            ag.load_checkpoint(path)

    def test_huge_dims_fail_before_allocating(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(_wft1(("w", (2**32 - 1, 2**32 - 1, 2**32 - 1), b"\x00" * 16)))
        with pytest.raises(RecordFormatError, match="truncated"):
            ag.load_checkpoint(path)

    def test_undecodable_name_rejected(self, tmp_path):
        path = tmp_path / "name.ckpt"
        path.write_bytes(_wft1(("w", (1,), b"\x00" * 4)).replace(b"\x01\x00w", b"\x01\x00\xff"))
        with pytest.raises(RecordFormatError, match="UTF-8"):
            ag.load_checkpoint(path)

    def test_hand_built_file_loads(self, tmp_path):
        path = tmp_path / "hand.ckpt"
        path.write_bytes(_wft1(("s", (), struct.pack("<f", 1.5)), ("v", (2,), struct.pack("<2f", 1.0, -2.0))))
        loaded = ag.load_checkpoint(path)
        assert loaded["s"].shape == () and loaded["s"] == 1.5
        np.testing.assert_array_equal(loaded["v"], [1.0, -2.0])


class TestDtypeMode:
    def test_float32_mode(self):
        # Precision belongs to the tensors: float32 leaves give float32 values and gradients.
        a = ag.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float32)
        loss = ag.binary_cross_entropy(ag.sigmoid(ag.mul(a, 0.5)), [0.0, 1.0])
        assert loss.data.dtype == np.float32
        assert gradients_into_zeros(loss, {"a": a})["a"].dtype == np.float32

    def test_default_is_float64(self):
        assert ag.Tensor([1.0]).data.dtype == np.float64
