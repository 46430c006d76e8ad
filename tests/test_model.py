import tracemalloc
import weakref

import numpy as np
import pytest

from ecgformer import autograd as ag
from ecgformer import model as wm
from ecgformer.dsp import ProcessedWindow
from ecgformer.errors import ConfigError, ShapeError

from oracles import (CountingGenerator, allocating_collect_gradients, central_difference_grad, copy_arrays,
                     forward_one, gradients_into_zeros, max_rel_err, per_head_attention, per_head_attention_backward,
                     per_site_draws, whole_tensor_truncated_normal)

TOY = wm.ModelConfig(
    num_leads=2, d_patch=64, d_model=16, num_layers=2, num_heads=2, d_ff=16,
    d_deep=8, d_wide=4, d_class=3, window_samples=192,
)
# An eval forward records no graph; train mode without dropout is the same forward with one.
NO_DROPOUT = wm.ModelConfig(**{**TOY.__dict__, "dropout_encoder": 0.0, "dropout_head": 0.0})


def toy_window(rng, pad_start=None):
    sig = rng.uniform(-1.0, 1.0, size=(TOY.num_leads, TOY.window_samples))
    if pad_start is not None:
        sig[:, pad_start:] = 0.0
    return ProcessedWindow(signal=sig, pad_start=pad_start if pad_start is not None else TOY.window_samples, source_offset=0)


class TestPatchify:
    def test_twelve_lead_default_shape(self):
        cfg = wm.ModelConfig(num_leads=12)
        win = ProcessedWindow(np.zeros((12, 7680)), 7680, 0)
        assert wm.patchify(win, cfg).shape == (120, 768)

    def test_two_lead_width(self):
        cfg = wm.ModelConfig(num_leads=2)
        win = ProcessedWindow(np.zeros((2, 7680)), 7680, 0)
        assert wm.patchify(win, cfg).shape == (120, 128)

    def test_token_layout_lead_major(self):
        cfg = wm.ModelConfig(num_leads=4)
        rng = np.random.default_rng(0)
        sig = rng.normal(size=(4, 7680))
        win = ProcessedWindow(np.clip(sig, -1, 1), 7680, 0)
        tokens = wm.patchify(win, cfg)
        # Token 5, lead 3 occupies columns [3*64, 4*64) and equals samples [320, 384).
        np.testing.assert_array_equal(tokens[5, 3 * 64 : 4 * 64], win.signal[3, 320:384])

    def test_shape_mismatch_rejected(self):
        cfg = wm.ModelConfig(num_leads=12)
        with pytest.raises(ShapeError):
            wm.patchify(ProcessedWindow(np.zeros((2, 7680)), 7680, 0), cfg)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            wm.ModelConfig(num_leads=2, d_model=10, num_heads=3)
        with pytest.raises(ConfigError):
            wm.ModelConfig(num_leads=2, window_samples=100, d_patch=64)
        assert wm.ModelConfig(num_leads=12).num_patches == 120


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = wm.init_params(TOY, seed=5)
        b = wm.init_params(TOY, seed=5)
        for name in a.tensors:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_norm_gains_and_biases(self):
        params = wm.init_params(TOY, seed=1)
        np.testing.assert_array_equal(params["layers.0.norm1.gain"].data, 1.0)
        np.testing.assert_array_equal(params["layers.0.norm1.bias"].data, 0.0)
        np.testing.assert_array_equal(params["head.fc1.bias"].data, 0.0)

    def test_empirical_sigma(self):
        cfg = wm.ModelConfig(num_leads=2, d_model=256, num_layers=1, num_heads=2,
                             d_ff=32, d_wide=4, d_class=3, window_samples=640)
        params = wm.init_params(cfg, seed=2)
        entries = params["patch_projection.weight"].data.ravel()
        assert entries.size >= 10_000
        assert 0.015 <= entries.std() <= 0.025

    @pytest.mark.parametrize("positional", ["learned", "sinusoidal"])
    def test_adam_init_releases_the_initial_buffer_whole(self, positional):
        # The trainable tensors are views of one buffer; once adam_init has moved them, nothing holds it.
        cfg = wm.ModelConfig(**{**TOY.__dict__, "positional": positional})
        params = wm.init_params(cfg, seed=4)
        trainable = params.trainable()
        store = next(iter(trainable.values())).data.base
        assert all(t.data.base is store for t in trainable.values())
        assert store.size == sum(t.data.size for t in trainable.values())
        released = weakref.ref(store)
        del store
        ag.adam_init(trainable)
        assert released() is None

    @pytest.mark.parametrize("sigma", [0.02, 1.0, 3e-5])
    @pytest.mark.parametrize("shape", [(1,), (7,), (64, 16), (3, 5, 4), (768, 768)])
    def test_truncated_normal_matches_whole_tensor_redraws(self, shape, sigma):
        # The same draws in the same places, and the generator left where the whole-tensor loop leaves it.
        for seed in (0, 1, 2, 3, 11):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = wm._truncated_normal(fast, shape, sigma), whole_tensor_truncated_normal(slow, shape, sigma)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, shape, sigma)
            assert fast.random() == slow.random()
            assert np.abs(got).max() <= 2.0 * sigma

    def test_parameter_count_formula_20_random_configs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            heads = int(rng.integers(1, 4))
            d_patch = int(rng.choice([8, 16, 64]))
            cfg = wm.ModelConfig(
                num_leads=int(rng.integers(1, 5)),
                d_patch=d_patch,
                d_model=heads * int(rng.integers(2, 9)),
                num_layers=int(rng.integers(1, 4)),
                num_heads=heads,
                d_ff=int(rng.integers(4, 33)),
                d_deep=int(rng.integers(2, 17)),
                d_wide=int(rng.integers(1, 23)),
                d_class=int(rng.integers(2, 27)),
                window_samples=d_patch * int(rng.integers(2, 7)),
            )
            params = wm.init_params(cfg, seed=0)
            assert sum(t.data.size for t in params.tensors.values()) == wm.parameter_count(cfg)


class TestForward:
    def setup_method(self):
        self.rng = np.random.default_rng(10)
        self.params = wm.init_params(TOY, seed=7)
        self.window = toy_window(self.rng)
        self.wide = self.rng.normal(size=TOY.d_wide)

    def test_output_shapes(self):
        out = forward_one(self.window, self.wide, self.params, TOY)
        assert out.logits.shape == (TOY.d_class,)
        assert out.probabilities.shape == (TOY.d_class,)
        np.testing.assert_allclose(out.probabilities.data, 1 / (1 + np.exp(-out.logits.data)), atol=1e-12)

    def test_zero_params_give_half_probabilities(self):
        zeros = {name: np.zeros(shape) for name, shape in wm.expected_shapes(TOY).items()}
        params = wm.params_from_arrays(zeros, TOY)
        out = forward_one(self.window, self.wide, params, TOY)
        np.testing.assert_array_equal(out.logits.data, 0.0)
        np.testing.assert_array_equal(out.probabilities.data, 0.5)

    def test_eval_deterministic_bitwise(self):
        a = forward_one(self.window, self.wide, self.params, TOY).logits.data
        b = forward_one(self.window, self.wide, self.params, TOY).logits.data
        np.testing.assert_array_equal(a, b)

    def test_train_mode_deterministic_per_seed(self):
        a = forward_one(self.window, self.wide, self.params, TOY, mode="train", seed=3).logits.data
        b = forward_one(self.window, self.wide, self.params, TOY, mode="train", seed=3).logits.data
        np.testing.assert_array_equal(a, b)

    def test_attention_rows_sum_to_one_train_and_eval(self):
        for mode, seed in (("eval", None), ("train", 5)):
            out = forward_one(self.window, self.wide, self.params, TOY, mode=mode, seed=seed, capture_attention=True)
            assert len(out.attention_maps) == TOY.num_layers
            for maps in out.attention_maps:
                assert maps.shape == (TOY.num_heads, TOY.num_patches + 1, TOY.num_patches + 1)
                np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-6)
                assert (maps >= 0).all()

    def test_wide_length_check(self):
        with pytest.raises(ShapeError):
            wm.forward([self.window], np.zeros((1, TOY.d_wide + 1)), self.params, TOY)

    def test_permutation_equivariance(self):
        # Permuting patch tokens together with their positional rows leaves
        # the class-token output unchanged.
        n = TOY.num_patches
        perm = np.random.default_rng(11).permutation(n)
        base = forward_one(self.window, self.wide, self.params, TOY).logits.data

        blocks = self.window.signal.reshape(TOY.num_leads, n, TOY.d_patch)
        permuted_window = ProcessedWindow(
            blocks[:, perm, :].reshape(TOY.num_leads, TOY.window_samples).copy(), TOY.window_samples, 0
        )
        arrays = copy_arrays(self.params)
        pos = arrays["positional_embedding"]
        arrays["positional_embedding"] = np.concatenate([pos[:1], pos[1:][perm]], axis=0)
        permuted_params = wm.params_from_arrays(arrays, TOY)
        permuted = forward_one(permuted_window, self.wide, permuted_params, TOY).logits.data
        assert np.max(np.abs(base - permuted)) < 1e-9

    def test_padded_region_still_attended_without_mask(self):
        rng = np.random.default_rng(12)
        win = toy_window(rng, pad_start=100)
        base = forward_one(win, self.wide, self.params, TOY).logits.data
        tweaked = ProcessedWindow(win.signal.copy(), win.pad_start, 0)
        tweaked.signal[:, 150:] = 0.5
        changed = forward_one(tweaked, self.wide, self.params, TOY).logits.data
        assert np.max(np.abs(base - changed)) > 0.0

    def test_mask_padding_blocks_padded_keys(self):
        cfg = wm.ModelConfig(**{**TOY.__dict__, "mask_padding": True})
        params = wm.params_from_arrays(copy_arrays(self.params), cfg)
        rng = np.random.default_rng(13)
        win = toy_window(rng, pad_start=100)  # tokens 1 and 2 fully padded
        base = forward_one(win, self.wide, params, cfg, capture_attention=True)
        tweaked = ProcessedWindow(win.signal.copy(), win.pad_start, 0)
        tweaked.signal[:, 150:] = 0.9
        changed = forward_one(tweaked, self.wide, params, cfg).logits.data
        np.testing.assert_allclose(base.logits.data, changed, atol=1e-12)
        for maps in base.attention_maps:
            # Keys for tokens starting at samples 128 and 64.. wait token starts
            # are 0,64,128; pad_start=100 masks tokens with start >= 100: token 2.
            np.testing.assert_allclose(maps[:, :, 3], 0.0, atol=1e-12)
            np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-6)

    def test_sinusoidal_positional_flag(self):
        cfg = wm.ModelConfig(**{**TOY.__dict__, "positional": "sinusoidal"})
        params = wm.init_params(cfg, seed=0)
        assert not params["positional_embedding"].requires_grad
        expected = wm.sinusoidal_positions(cfg.num_patches + 1, cfg.d_model)
        np.testing.assert_allclose(params["positional_embedding"].data, expected)
        out = forward_one(self.window, self.wide, params, cfg)
        assert np.isfinite(out.logits.data).all()


class TestModelGradients:
    def test_selected_parameter_gradients_match_finite_differences(self):
        # Full-coverage gradient check lives in the acceptance suite; here a
        # representative tensor from each parameter family keeps the loop fast.
        rng = np.random.default_rng(20)
        params = wm.init_params(TOY, seed=3)
        window = toy_window(rng)
        wide = rng.normal(size=TOY.d_wide)
        targets = rng.integers(0, 2, size=TOY.d_class).astype(float)

        def loss_with(arrays):
            p = wm.params_from_arrays(arrays, TOY)
            out = forward_one(window, wide, p, TOY)
            return ag.binary_cross_entropy(out.probabilities, targets)

        arrays = copy_arrays(params)
        live = wm.params_from_arrays(arrays, TOY)
        out = forward_one(window, wide, live, NO_DROPOUT, mode="train")
        loss = ag.binary_cross_entropy(out.probabilities, targets)
        analytic = gradients_into_zeros(loss, live.trainable())

        for name in ["class_token", "positional_embedding", "layers.0.attn.w_q.weight",
                     "layers.1.ff.fc1.weight", "layers.0.norm1.gain", "final_norm.bias",
                     "head.fc2.weight", "patch_projection.bias"]:
            base = arrays[name].copy()

            def f(x, name=name):
                probe = {k: v.copy() for k, v in arrays.items()}
                probe[name] = x
                return loss_with(probe).item()

            numeric = central_difference_grad(f, base)
            err = max_rel_err(analytic[name], numeric)
            assert err < 1e-4, f"{name}: rel err {err}"


def _oracle_attention_sublayer(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, heads, key_mask, p, rng, capture):
    """Drop-in for ag.attention_sublayer on a batch of one: the norm, the per-head oracle as one graph node, then
    the residual dropout and add as their own nodes."""
    assert x.shape[0] == 1
    pre = ag.layer_norm(x, gain, bias)
    tensors = [wq, bq, wk, bk, wv, bv, wo, bo]
    out, maps, cache = per_head_attention(pre.data[0], *[t.data for t in tensors], heads,
                                          None if key_mask is None else key_mask[0], p, rng[0] if rng else None)
    if capture is not None:
        capture.append(maps[None])

    nodes = [t._node for t in (pre, *tensors)]

    def backward_fn(grad, grads):
        dx, dparams = per_head_attention_backward(grad[0], cache)
        grads(nodes[0], dx[None])
        for node, g in zip(nodes[1:], dparams):
            grads(node, g)

    attended = ag.Tensor._result(out[None], (pre, *tensors), backward_fn, "oracle_attention")
    return ag.add(x, ag.dropout(attended, p, rng))


class TestFusedAttentionOracle:
    """The batched all-heads attention reproduces the per-head slice/concat form bit for bit."""

    def _run(self, config, mode, pad_start):
        rng = np.random.default_rng(31)
        params = wm.init_params(config, seed=4)
        sig = rng.uniform(-1.0, 1.0, size=(config.num_leads, config.window_samples))
        sig[:, pad_start:] = 0.0
        window = ProcessedWindow(signal=sig, pad_start=pad_start, source_offset=0)
        wide = rng.normal(size=config.d_wide)
        targets = rng.integers(0, 2, size=config.d_class).astype(float)
        out = forward_one(window, wide, params, config, mode=mode, seed=7, capture_attention=True)
        if mode == "eval":
            # An eval forward records no graph: take the gradients from the same
            # forward with a graph, train mode without dropout.
            no_dropout = wm.ModelConfig(**{**config.__dict__, "dropout_encoder": 0.0, "dropout_head": 0.0})
            graph_out = forward_one(window, wide, params, no_dropout, mode="train", seed=7)
            assert graph_out.probabilities.data.tobytes() == out.probabilities.data.tobytes()
        else:
            graph_out = out
        loss = ag.binary_cross_entropy(graph_out.probabilities, targets)
        return out, gradients_into_zeros(loss, params.trainable())

    @pytest.mark.parametrize("mask_padding", [False, True])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("shape", ["toy", "four_heads", "paper_width"])
    def test_bitwise_equal_to_per_head_oracle(self, monkeypatch, shape, mode, mask_padding):
        base = {
            "toy": TOY,
            "four_heads": wm.ModelConfig(num_leads=3, d_model=24, num_layers=2, num_heads=4, d_ff=20,
                                         d_deep=8, d_wide=4, d_class=3, window_samples=320),
            # The paper's attention shape (12 heads, width 768, 121 tokens) in one layer.
            "paper_width": wm.ModelConfig(num_leads=1, d_model=768, num_layers=1, num_heads=12, d_ff=8,
                                          d_deep=8, d_wide=4, d_class=3, window_samples=7680),
        }[shape]
        config = wm.ModelConfig(**{**base.__dict__, "mask_padding": mask_padding})
        pad_start = config.window_samples - config.d_patch - 7
        fused_out, fused_grads = self._run(config, mode, pad_start)
        monkeypatch.setattr(ag, "attention_sublayer", _oracle_attention_sublayer)
        # The oracle draws each head's dropout from the slot's generator, so every site draws on its own.
        monkeypatch.setattr(ag, "SlotDraws", per_site_draws)
        oracle_out, oracle_grads = self._run(config, mode, pad_start)

        assert np.array_equal(fused_out.probabilities.data, oracle_out.probabilities.data)
        assert len(fused_out.attention_maps) == config.num_layers
        for fused_map, oracle_map in zip(fused_out.attention_maps, oracle_out.attention_maps):
            assert fused_map.shape == (config.num_heads, config.num_patches + 1, config.num_patches + 1)
            assert np.array_equal(fused_map, oracle_map)
        assert fused_grads.keys() == oracle_grads.keys()
        for name in fused_grads:
            assert np.array_equal(fused_grads[name], oracle_grads[name]), name
        if mask_padding:
            # The last patch starts past pad_start, so no query attends to it.
            assert (fused_out.attention_maps[0][:, :, -1] == 0.0).all()


FOUR_HEADS = wm.ModelConfig(num_leads=3, d_model=24, num_layers=2, num_heads=4, d_ff=20,
                            d_deep=8, d_wide=4, d_class=3, window_samples=320)


class TestReversePassOracle:
    """Gradients added into a zeroed total during the reverse pass equal the keep-everything pass added into
    zeros, bit for bit, one pass at a time and as a running total over passes."""

    def _sample(self, config, params, sample):
        rng = np.random.default_rng(40 + sample)
        pad_start = config.window_samples - config.d_patch - 7
        sig = rng.uniform(-1.0, 1.0, size=(config.num_leads, config.window_samples))
        sig[:, pad_start:] = 0.0
        window = ProcessedWindow(signal=sig, pad_start=pad_start, source_offset=0)
        out = forward_one(window, rng.normal(size=config.d_wide), params, config, mode="train", seed=sample)
        return ag.binary_cross_entropy(out.probabilities, rng.integers(0, 2, size=config.d_class).astype(float))

    @pytest.mark.parametrize("mask_padding", [False, True])
    @pytest.mark.parametrize("base", [TOY, FOUR_HEADS], ids=["toy", "four_heads"])
    def test_bitwise_equal_alone_and_as_a_running_total(self, base, mask_padding):
        config = wm.ModelConfig(**{**base.__dict__, "mask_padding": mask_padding})
        params = wm.init_params(config, seed=6)
        trainable = params.trainable()
        total = {name: np.zeros_like(t.data) for name, t in trainable.items()}
        expected_total = {name: np.zeros_like(t.data) for name, t in trainable.items()}
        for sample in range(3):
            expected = allocating_collect_gradients(self._sample(config, params, sample), trainable)
            grads = gradients_into_zeros(self._sample(config, params, sample), trainable)
            assert list(grads) == list(expected)
            for name, g in expected.items():
                assert grads[name].tobytes() == (np.zeros_like(g) + g).tobytes(), (sample, name)
            ag.collect_gradients(self._sample(config, params, sample), trainable, total)
            expected_total = {name: expected_total[name] + expected[name] for name in expected}
        for name in expected_total:
            assert total[name].tobytes() == expected_total[name].tobytes(), name


def _batch_inputs(config, batch, seed=50):
    """`batch` windows, each with its own padding start (so each slot masks other keys), wide rows and targets."""
    rng = np.random.default_rng(seed)
    windows = []
    for slot in range(batch):
        pad_start = max(1, config.window_samples - 7 - 23 * slot)
        sig = rng.uniform(-1.0, 1.0, size=(config.num_leads, config.window_samples))
        sig[:, pad_start:] = 0.0
        windows.append(ProcessedWindow(signal=sig, pad_start=pad_start, source_offset=0))
    wide = rng.normal(size=(batch, config.d_wide))
    targets = rng.integers(0, 2, size=(batch, config.d_class)).astype(float)
    return windows, wide, targets


class TestBatchedEngineOracle:
    """A batch as one graph gives, slot by slot, the bytes of a forward and reverse pass of its record alone;
    the parameter gradients are the slot-order running total of those passes."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("mask_padding", [False, True])
    @pytest.mark.parametrize("base", [TOY, FOUR_HEADS], ids=["toy", "four_heads"])
    def test_train_batch_equals_slot_order_sum_of_single_passes(self, base, mask_padding, batch, dtype):
        config = wm.ModelConfig(**{**base.__dict__, "mask_padding": mask_padding})
        params = wm.init_params(config, seed=8, dtype=dtype)
        trainable = params.trainable()
        windows, wide, targets = _batch_inputs(config, batch)
        seeds = [100 + slot for slot in range(batch)]
        # Dropout is live: each slot must draw its masks from its own generator, in the order a lone record would.
        out = wm.forward(windows, wide, params, config, mode="train", rng=[np.random.default_rng(s) for s in seeds])
        assert out.probabilities.shape == (batch, config.d_class)
        loss = ag.binary_cross_entropy(out.probabilities, targets, per_slot=True)
        grads = gradients_into_zeros(loss, trainable)

        total = {name: np.zeros_like(t.data) for name, t in trainable.items()}
        for slot in range(batch):
            one = forward_one(windows[slot], wide[slot], params, config, mode="train", seed=seeds[slot])
            assert one.probabilities.data.tobytes() == out.probabilities.data[slot].tobytes(), slot
            one_loss = ag.binary_cross_entropy(one.probabilities, targets[slot])
            assert one_loss.data.tobytes() == loss.data[slot].tobytes(), slot
            ag.collect_gradients(one_loss, trainable, total)
        assert sorted(grads) == sorted(total)
        for name in total:
            assert grads[name].dtype == dtype
            assert grads[name].tobytes() == total[name].tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("mask_padding", [False, True])
    @pytest.mark.parametrize("base", [TOY, FOUR_HEADS], ids=["toy", "four_heads"])
    def test_eval_batch_rows_equal_single_records(self, base, mask_padding, batch, dtype):
        config = wm.ModelConfig(**{**base.__dict__, "mask_padding": mask_padding})
        params = wm.init_params(config, seed=9, dtype=dtype)
        windows, wide, _ = _batch_inputs(config, batch)
        out = wm.forward(windows, wide, params, config, mode="eval", capture_attention=True)
        for slot in range(batch):
            one = forward_one(windows[slot], wide[slot], params, config, mode="eval", capture_attention=True)
            assert one.probabilities.data.tobytes() == out.probabilities.data[slot].tobytes(), slot
            assert one.logits.data.tobytes() == out.logits.data[slot].tobytes(), slot
            for one_map, maps in zip(one.attention_maps, out.attention_maps):
                assert maps.shape == (batch, config.num_heads, config.num_patches + 1, config.num_patches + 1)
                assert one_map.tobytes() == maps[slot].tobytes(), slot

    def test_batch_inputs_are_checked(self):
        params = wm.init_params(TOY, seed=1)
        windows, wide, _ = _batch_inputs(TOY, 2)
        with pytest.raises(ShapeError):
            wm.forward(windows, wide[:1], params, TOY)
        with pytest.raises(ShapeError):
            wm.forward(windows, wide, params, TOY, mode="train", rng=[np.random.default_rng(s) for s in (1, 2, 3)])


# The paper's encoder shape (width 768, 12 heads, 121 tokens) in two layers on one lead, and a shape whose dropout
# sites share the buffer in runs of two to four.
PAPER_SHAPE = wm.ModelConfig(num_leads=1, num_layers=2, d_wide=4, d_class=3)
MIXED_SHAPE = wm.ModelConfig(num_leads=2, d_model=128, num_layers=2, num_heads=4, d_ff=32, d_deep=8, d_wide=4,
                             d_class=3, window_samples=640)


class TestSlotDraws:
    """A training forward's one stream per slot hands every dropout site the mask of per-site draws."""

    @pytest.mark.parametrize("positional, head", [(True, 0.2), (False, 0.0)])
    @pytest.mark.parametrize("base, calls", [(TOY, (1, 1)), (MIXED_SHAPE, (3, 2)), (PAPER_SHAPE, (8, 6))],
                             ids=["toy", "mixed", "paper"])
    def test_every_site_gets_the_mask_of_per_site_draws(self, monkeypatch, base, calls, positional, head):
        config = wm.ModelConfig(**{**base.__dict__, "dropout_positional": positional, "dropout_head": head})
        params = wm.init_params(config, seed=5)
        windows, wide, targets = _batch_inputs(config, 2)
        draw_kept = ag._draw_kept

        def run():
            sites, gens = [], [CountingGenerator(40 + s) for s in range(2)]

            def recorded(shape, p, rng, op):
                kept, keep = draw_kept(shape, p, rng, op)
                sites.append((op, p, kept.copy()))
                return kept, keep

            monkeypatch.setattr(ag, "_draw_kept", recorded)
            out = wm.forward(windows, wide, params, config, mode="train", rng=gens)
            loss = ag.binary_cross_entropy(out.probabilities, targets, per_slot=True)
            return sites, gens, out, gradients_into_zeros(loss, params.trainable())

        sites, gens, out, grads = run()
        monkeypatch.setattr(ag, "SlotDraws", per_site_draws)
        want_sites, want_gens, want_out, want_grads = run()
        assert len(sites) == len(want_sites) == positional + 3 * config.num_layers + bool(head)
        for (op, p, kept), (want_op, want_p, want_kept) in zip(sites, want_sites):
            assert (op, p, kept.shape) == (want_op, want_p, want_kept.shape)
            assert kept.tobytes() == want_kept.tobytes(), op
        for gen, want in zip(gens, want_gens):
            # The same doubles in fewer calls, each one site larger than the buffer or a run of sites that fits it.
            assert len(gen.draws) == calls[not positional] and len(want.draws) == len(want_sites)
            assert all(n <= ag.DRAW_BUFFER or n in want.draws for n in gen.draws)
            assert gen.generator.bit_generator.state == want.generator.bit_generator.state
        assert out.probabilities.data.tobytes() == want_out.probabilities.data.tobytes()
        assert out.logits.data.tobytes() == want_out.logits.data.tobytes()
        assert all(grads[name].tobytes() == want_grads[name].tobytes() for name in want_grads)


class TestEvalForward:
    def test_records_no_graph(self):
        # At 12 leads, 7680 samples, width 128 and 2 layers, an eval forward
        # that recorded its graph would keep about 13 MB alive in its outputs.
        config = wm.ModelConfig(num_leads=12, d_model=128, num_layers=2, num_heads=8, d_ff=128, d_deep=8,
                                d_wide=4, d_class=3, window_samples=7680)
        params = wm.init_params(config, seed=2)
        rng = np.random.default_rng(3)
        windows = [ProcessedWindow(rng.uniform(-1.0, 1.0, size=(12, 7680)), 7680, 0)]
        wide = rng.normal(size=(1, config.d_wide))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = wm.forward(windows, wide, params, config, mode="eval")
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held < 0.5e6, held
        assert out.probabilities._parents == () and out.logits._parents == ()
        assert not out.probabilities.requires_grad
        assert all(t.requires_grad for t in params.trainable().values())

        # The same forward with a graph: train mode without dropout, bitwise equal.
        no_dropout = wm.ModelConfig(**{**config.__dict__, "dropout_encoder": 0.0, "dropout_head": 0.0})
        graph_out = wm.forward(windows, wide, params, no_dropout, mode="train")
        assert np.array_equal(graph_out.probabilities.data, out.probabilities.data)
        loss = ag.binary_cross_entropy(graph_out.probabilities, np.array([[1.0, 0.0, 1.0]]))
        grads = gradients_into_zeros(loss, params.trainable())
        assert grads.keys() == params.trainable().keys()
        assert np.any(grads["patch_projection.weight"] != 0.0)

    def test_float32_params_give_float32_outputs_and_gradients(self):
        params = wm.init_params(TOY, seed=1, dtype=np.float32)
        assert all(t.data.dtype == np.float32 for t in params.tensors.values())
        window = toy_window(np.random.default_rng(4))
        wide = np.ones(TOY.d_wide)
        assert forward_one(window, wide, params, TOY, mode="eval").probabilities.data.dtype == np.float32
        out = forward_one(window, wide, params, TOY, mode="train", seed=1)
        assert out.probabilities.data.dtype == np.float32
        loss = ag.binary_cross_entropy(out.probabilities, np.zeros(TOY.d_class))
        grads = gradients_into_zeros(loss, params.trainable())
        assert all(g.dtype == np.float32 for g in grads.values())


class TestParamsFromArrays:
    def test_unexpected_name_rejected(self):
        arrays = copy_arrays(wm.init_params(TOY, seed=1))
        arrays["layers.9.attn.w_q.weight"] = np.zeros((16, 16))
        with pytest.raises(ShapeError, match="unexpected"):
            wm.params_from_arrays(arrays, TOY)

    def test_wrong_shape_rejected(self):
        arrays = copy_arrays(wm.init_params(TOY, seed=1))
        arrays["class_token"] = np.zeros((1, 16))
        with pytest.raises(ShapeError, match="class_token"):
            wm.params_from_arrays(arrays, TOY)

    def test_tensor_count_is_closed_form(self):
        for layers in (1, 2, 5):
            cfg = wm.ModelConfig(**{**TOY.__dict__, "num_layers": layers})
            assert len(wm.expected_shapes(cfg)) == wm.TENSORS_OUTSIDE_LAYERS + wm.TENSORS_PER_LAYER * layers

    def test_too_few_tensors_rejected_before_the_shape_map(self, monkeypatch):
        arrays = copy_arrays(wm.init_params(TOY, seed=1))
        huge = wm.ModelConfig(**{**TOY.__dict__, "num_layers": 10**9})
        monkeypatch.setattr(wm, "expected_shapes", None)  # never reached
        with pytest.raises(ShapeError, match=f"holds {len(arrays)} tensors, but num_layers=1000000000 needs"):
            wm.params_from_arrays(arrays, huge)
        del arrays["head.fc2.bias"]
        with pytest.raises(ShapeError, match=f"holds {len(arrays)} tensors, but num_layers=2 needs 42"):
            wm.params_from_arrays(arrays, TOY)
