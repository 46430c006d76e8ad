import tracemalloc

import numpy as np
import pytest

from ecgformer import autograd as ag
from ecgformer import dsp, features, metrics, model, record_io, stratify, synth, train
from ecgformer.errors import ArgumentRangeError, ConfigError, UndefinedScoreError
from ecgformer.features import FeatureConfig

from oracles import PerStepStreams, brute_challenge_metric, brute_fit_thresholds, loop_challenge_metric, textbook_adam

TOY_PREPROCESS = dsp.PreprocessConfig(window_samples=192)


def toy_model_config(d_class=5):
    return model.ModelConfig(
        num_leads=2, d_patch=64, d_model=16, num_layers=2, num_heads=2, d_ff=16,
        d_deep=8, d_wide=4, d_class=d_class, window_samples=192,
    )


def toy_train_config(**overrides):
    base = dict(
        batch_size_train=8, learning_rate=3e-3, max_steps=30,
        seed=1, eval_every=10, lead_subset="two", normal_class="SR",
    )
    base.update(overrides)
    return train.TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    synth.generate_corpus(root, num_records=8, seed=3)
    class_map = record_io.load_class_map(root / "class_map.csv")
    manifest = record_io.build_manifest(root, class_map)
    weights = metrics.load_weight_matrix(root / "weights.csv", synth.NORMAL_CLASS)
    return manifest, weights


class TestFitThresholds:
    def test_separated_class_tie_rule_yields_half(self):
        probs = np.array([[0.9], [0.9], [0.1], [0.1]])
        labels = np.array([[1], [1], [0], [0]])
        wm = metrics.WeightMatrix(np.eye(1), ["a"], 0)
        # Single class == normal class would be degenerate; use two classes.
        probs = np.hstack([probs, 1 - probs])
        labels = np.hstack([labels, 1 - labels])
        wm = metrics.WeightMatrix(np.eye(2), ["a", "n"], 1)
        tv = train.fit_thresholds(probs, labels, wm)
        assert tv.values[0] == 0.5
        assert tv.values[1] == 0.5

    def test_probabilities_equal_labels_scores_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=(12, 3))
        labels[:, 1] |= labels.sum(axis=1) == 0  # avoid empty label rows staying empty
        wm = metrics.WeightMatrix(np.eye(3), ["a", "b", "n"], 2)
        tv = train.fit_thresholds(labels.astype(float), labels, wm)
        preds = train.apply_thresholds(labels.astype(float), tv)
        assert metrics.challenge_metric(labels, preds, wm) == 1.0

    def test_ascent_dominates_uniform_half(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            probs = rng.uniform(size=(50, 4))
            labels = rng.integers(0, 2, size=(50, 4))
            labels[0] = [1, 0, 0, 0]
            labels[1] = [0, 1, 0, 0]
            wm = metrics.WeightMatrix(metrics.synthetic_weight_matrix([f"c{i}" for i in range(4)], "c0").w,
                                      [f"c{i}" for i in range(4)], 0)
            tv = train.fit_thresholds(probs, labels, wm)
            fitted = metrics.challenge_metric(labels, train.apply_thresholds(probs, tv), wm)
            at_half = metrics.challenge_metric(labels, (probs >= 0.5).astype(int), wm)
            assert fitted >= at_half

    def test_degenerate_class_keeps_half_and_reported(self):
        rng = np.random.default_rng(2)
        probs = rng.uniform(size=(10, 3))
        labels = np.zeros((10, 3), dtype=int)
        labels[:4, 0] = 1
        wm = metrics.WeightMatrix(np.eye(3), ["a", "b", "n"], 2)
        tv = train.fit_thresholds(probs, labels, wm)
        assert 1 in tv.degenerate_classes
        assert tv.values[1] == 0.5


def random_fit_instance(rng, dyadic):
    """Small labels/probabilities; probabilities on a coarse lattice so that grid ties occur."""
    n = int(rng.integers(1, 13))
    c = int(rng.integers(2, 5))
    codes = [f"c{i}" for i in range(c)]
    normal = int(rng.integers(0, c))
    if dyadic:
        wm = metrics.synthetic_weight_matrix(codes, codes[normal])
    else:
        w = rng.uniform(0.0, 1.0, size=(c, c))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 1.0)
        wm = metrics.WeightMatrix(w, codes, normal)
    step = [0.1, 0.125, 0.25, 0.5][int(rng.integers(0, 4))]
    probs = np.round(rng.uniform(size=(n, c)) / step) * step
    labels = (rng.random((n, c)) < 0.4).astype(np.int64)
    return probs, labels, wm


class TestFitThresholdsOracle:
    def _compare(self, seed, dyadic, metric):
        rng = np.random.default_rng(seed)
        fitted = 0
        for _ in range(220):
            probs, labels, wm = random_fit_instance(rng, dyadic)
            try:
                got = train.fit_thresholds(probs, labels, wm).values
            except UndefinedScoreError:
                continue
            want = brute_fit_thresholds(probs, labels, wm.w, wm.normal_class_index, metric)
            assert got.tolist() == want.tolist(), (probs, labels, wm.w)
            fitted += 1
        assert fitted >= 200

    def test_equals_brute_force_ascent(self):
        self._compare(21, dyadic=False, metric=brute_challenge_metric)

    def test_equals_record_loop_ascent_with_dyadic_weights(self):
        # The synthetic reward matrix holds powers of two, so different
        # predictions often score exactly alike; ties must resolve as a
        # grid search over the record-loop metric resolves them.
        self._compare(22, dyadic=True, metric=loop_challenge_metric)


class TestTrainFold:
    def test_initial_loss_near_log_half(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=int), 1)
        cfg = toy_train_config(max_steps=1, eval_every=1)
        _, _, report = train.train_fold(manifest, fa, -1, toy_model_config(), TOY_PREPROCESS, cfg, weights, tmp_path / "r")
        assert report.loss_curve[0] == pytest.approx(0.693, abs=0.05)

    def test_bitwise_deterministic_loss_curves(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.stratified_folds(manifest.label_matrix(), k=2, seed=0)
        cfg = toy_train_config(max_steps=12)
        _, _, r1 = train.train_fold(manifest, fa, 0, toy_model_config(), TOY_PREPROCESS, cfg, weights, tmp_path / "a")
        _, _, r2 = train.train_fold(manifest, fa, 0, toy_model_config(), TOY_PREPROCESS, cfg, weights, tmp_path / "b")
        assert r1.loss_curve == r2.loss_curve

    def test_thread_count_does_not_change_results(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.stratified_folds(manifest.label_matrix(), k=2, seed=0)
        _, _, r1 = train.train_fold(manifest, fa, 0, toy_model_config(), TOY_PREPROCESS,
                                    toy_train_config(max_steps=8, threads=1), weights, tmp_path / "t1")
        _, _, r4 = train.train_fold(manifest, fa, 0, toy_model_config(), TOY_PREPROCESS,
                                    toy_train_config(max_steps=8, threads=4), weights, tmp_path / "t4")
        assert r1.loss_curve == r4.loss_curve
        assert r1.challenge == r4.challenge

    def test_validation_never_trains(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.stratified_folds(manifest.label_matrix(), k=2, seed=1)
        _, _, report = train.train_fold(manifest, fa, 0, toy_model_config(), TOY_PREPROCESS,
                                        toy_train_config(max_steps=10), weights, tmp_path / "v")
        assert not set(report.trained_record_ids) & set(report.val_record_ids)
        assert set(report.trained_record_ids) | set(report.val_record_ids) == set(manifest.record_ids())

    def test_checkpoint_reload_reproduces_metric_bitwise(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.stratified_folds(manifest.label_matrix(), k=2, seed=2)
        params, thresholds, report = train.train_fold(manifest, fa, 0, toy_model_config(), TOY_PREPROCESS,
                                                      toy_train_config(max_steps=10), weights, tmp_path / "c")
        reloaded = model.params_from_arrays(ag.load_checkpoint(report.checkpoint_path), toy_model_config())
        val_idx = [manifest.record_ids().index(r) for r in report.val_record_ids]
        prepared = train.prepare_records(manifest, np.array(val_idx), record_io.lead_subset("two"),
                                         TOY_PREPROCESS, FeatureConfig(), 4)
        probs = train.predict_probabilities([prepared[i] for i in val_idx], reloaded, toy_model_config(), TOY_PREPROCESS)
        labels = manifest.label_matrix()[val_idx]
        again = metrics.challenge_metric(labels, train.apply_thresholds(probs, thresholds), weights)
        assert again == report.challenge

    def test_loss_decreases(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=int), 1)
        cfg = toy_train_config(max_steps=40, eval_every=20)
        _, _, report = train.train_fold(manifest, fa, -1, toy_model_config(), TOY_PREPROCESS, cfg, weights, tmp_path / "d")
        assert report.loss_curve[-1] < report.loss_curve[0]

    def test_fold_out_of_range(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.stratified_folds(manifest.label_matrix(), k=2, seed=3)
        with pytest.raises(ArgumentRangeError):
            train.train_fold(manifest, fa, 5, toy_model_config(), TOY_PREPROCESS, toy_train_config(), weights, tmp_path / "x")

    def test_class_count_mismatch_rejected(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.stratified_folds(manifest.label_matrix(), k=2, seed=3)
        with pytest.raises(ConfigError):
            train.train_fold(manifest, fa, 0, toy_model_config(d_class=3), TOY_PREPROCESS, toy_train_config(), weights, tmp_path / "y")

    def test_float32_precision_mode(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=int), 1)
        cfg = toy_train_config(max_steps=3, eval_every=3, precision="float32")
        params, _, report = train.train_fold(manifest, fa, -1, toy_model_config(), TOY_PREPROCESS, cfg,
                                             weights, tmp_path / "f32")
        assert all(np.isfinite(v) for v in report.loss_curve)

    def test_float32_run_reports_what_evaluate_recomputes(self, corpus, tmp_path):
        # Training steps run in float32; the validation pass that fits the
        # thresholds runs the reloaded checkpoint in float64, as evaluate does.
        manifest, weights = corpus
        fa = stratify.stratified_folds(manifest.label_matrix(), k=2, seed=2)
        cfg = toy_train_config(max_steps=10, precision="float32")
        params, thresholds, report = train.train_fold(manifest, fa, 0, toy_model_config(), TOY_PREPROCESS, cfg,
                                                      weights, tmp_path / "f32")
        assert all(t.data.dtype == np.float64 for t in params.tensors.values())
        reloaded = model.params_from_arrays(ag.load_checkpoint(report.checkpoint_path), toy_model_config())
        val_idx = fa.records_in_fold(0)
        prepared = train.prepare_records(manifest, val_idx, record_io.lead_subset("two"), TOY_PREPROCESS,
                                         FeatureConfig(), 4)
        probs = train.predict_probabilities([prepared[int(i)] for i in val_idx], reloaded, toy_model_config(),
                                            TOY_PREPROCESS)
        assert probs.dtype == np.float64
        labels = manifest.label_matrix()[val_idx]
        refit = train.fit_thresholds(probs, labels, weights)
        _, written = train.load_thresholds(tmp_path / "f32" / "thresholds.csv", manifest.class_list)
        assert np.array_equal(refit.values, thresholds.values)
        assert np.array_equal(written.values, thresholds.values)
        assert metrics.challenge_metric(labels, train.apply_thresholds(probs, written), weights) == report.challenge

    def test_standardize_wide_writes_scaler(self, corpus, tmp_path):
        manifest, weights = corpus
        fa = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=int), 1)
        cfg = toy_train_config(max_steps=2, eval_every=2, standardize_wide=True)
        train.train_fold(manifest, fa, -1, toy_model_config(), TOY_PREPROCESS, cfg, weights, tmp_path / "s")
        mean, std = train.load_wide_scaler(tmp_path / "s" / "wide_scaler.csv", 4)
        assert mean.shape == (4,) and np.all(std > 0)


class TestFlatAdamTraining:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_best_checkpoint_matches_per_tensor_textbook_adam(self, corpus, monkeypatch, tmp_path, precision):
        # The same steps with Adam replaced by the allocating textbook update, one tensor at a time.
        manifest, weights = corpus
        config = toy_model_config(len(manifest.class_list))
        cfg = toy_train_config(max_steps=12, eval_every=4, precision=precision)
        everything = np.arange(len(manifest.entries))
        prepared = train.prepare_records(manifest, everything, record_io.lead_subset("two"), TOY_PREPROCESS,
                                         FeatureConfig(), config.d_wide)
        args = (prepared, manifest.label_matrix(), everything, everything, config, TOY_PREPROCESS, cfg, weights)
        flat = train._train_steps(*args, tmp_path / "flat.wft1")

        start, history = {}, {}

        def textbook_step(params, grads, state, lr):
            for name, p in params.items():
                start.setdefault(name, p.data.copy())
                history.setdefault(name, []).append(grads[name].copy())
                p.data[...] = textbook_adam(start[name], history[name], lr)[0]
            return params, state

        monkeypatch.setattr(ag, "adam_step", textbook_step)
        oracle = train._train_steps(*args, tmp_path / "oracle.wft1")
        assert len(history["patch_projection.weight"]) == cfg.max_steps
        assert flat == oracle  # loss curve, trained rows
        assert (tmp_path / "flat.wft1").read_bytes() == (tmp_path / "oracle.wft1").read_bytes()


class TestTrainingStreams:
    # 8 records in batches of 3: the third batch holds the last two records of epoch 0 and the first of
    # epoch 1, and 40 steps run past the first block of dropout states.
    STEPS, BATCH = 40, 3

    def _train(self, corpus, out_dir):
        manifest, weights = corpus
        assert len(manifest.entries) % self.BATCH and self.STEPS > train.DROPOUT_BLOCK_STEPS
        fa = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=int), 1)
        cfg = toy_train_config(max_steps=self.STEPS, eval_every=20, batch_size_train=self.BATCH)
        _, _, report = train.train_fold(manifest, fa, -1, toy_model_config(len(manifest.class_list)), TOY_PREPROCESS,
                                        cfg, weights, out_dir)
        return report

    def test_same_run_as_a_fresh_generator_per_draw(self, corpus, tmp_path, monkeypatch):
        fast = self._train(corpus, tmp_path / "fast")
        monkeypatch.setattr(train, "_Streams", PerStepStreams)
        direct = self._train(corpus, tmp_path / "direct")
        assert fast.loss_curve == direct.loss_curve
        for name in ("checkpoint.wft1", "thresholds.csv"):
            assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes(), name

    def test_no_generator_is_built_inside_a_step(self, corpus, tmp_path, monkeypatch):
        # The README-toy model over 40 steps builds a generator for each epoch's order, seeded through `seeding`
        # without a SeedSequence, one generator for the initial parameters and the generators the run keeps:
        # none per step or per draw.
        built = {"SeedSequence": 0, "default_rng": 0}
        seed_sequence, default_rng = np.random.SeedSequence, np.random.default_rng

        def counted_seed_sequence(*args, **kwargs):
            built["SeedSequence"] += 1
            return seed_sequence(*args, **kwargs)

        def counted_default_rng(seed=None):
            built["default_rng"] += not isinstance(seed, np.random.Generator)  # a generator passes through
            return default_rng(seed)

        monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
        monkeypatch.setattr(np.random, "default_rng", counted_default_rng)
        self._train(corpus, tmp_path / "r")
        epochs = -(-self.STEPS * self.BATCH // len(corpus[0].entries))
        kept = 1 + self.BATCH  # the window generator and one dropout generator per slot
        assert built == {"SeedSequence": 0, "default_rng": epochs + 1 + kept}


class TestStepMemory:
    def test_step_holds_one_gradient_set(self, corpus, tmp_path):
        # At a width where parameters dominate, a step holds the parameters,
        # Adam's m and v, one running gradient total and one sample's graph.
        # Keeping a gradient set per sample and a float64 best copy beside
        # them costs about 3 more parameter sets.
        manifest, weights = corpus
        config = model.ModelConfig(num_leads=2, d_model=128, num_layers=2, num_heads=2, d_ff=128, d_deep=8,
                                   d_wide=4, d_class=len(manifest.class_list), window_samples=192)
        prepared = train.prepare_records(manifest, np.arange(len(manifest.entries)), record_io.lead_subset("two"),
                                         TOY_PREPROCESS, FeatureConfig(), config.d_wide)
        param_bytes = model.parameter_count(config) * 8

        params = model.init_params(config, seed=1)
        record, labels = prepared[0], manifest.label_matrix()[:1]
        window = dsp.cut_window(record.processed, TOY_PREPROCESS, "random", 1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = model.forward([window], record.wide[None], params, config, mode="train",
                                rng=[np.random.default_rng(0)])
            loss = ag.binary_cross_entropy(out.probabilities, labels)
            graph_bytes = tracemalloc.get_traced_memory()[1] - start
            del out, loss

            fa = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=int), 1)
            cfg = toy_train_config(batch_size_train=2, max_steps=2, eval_every=2)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            train.train_fold(manifest, fa, -1, config, TOY_PREPROCESS, cfg, weights, tmp_path / "m", prepared=prepared)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        margin = 0.5 * param_bytes  # the largest weight's gradient in flight, Python objects, small arrays
        assert peak < 4 * param_bytes + graph_bytes + margin, (peak / param_bytes, graph_bytes / param_bytes)

    def test_training_ends_without_a_copy_of_the_model(self, corpus, tmp_path, monkeypatch):
        # From the last step's update to the end of train_fold (the last evaluation, which keeps its parameters,
        # then the reload of the checkpoint), the parameters go to disk one tensor at a time. A float32 copy of
        # every parameter held to the end of training is half a float64 parameter set. The width makes the
        # parameters outweigh what validation allocates for its records.
        manifest, weights = corpus
        config = model.ModelConfig(num_leads=2, d_model=256, num_layers=2, num_heads=2, d_ff=256, d_deep=8,
                                   d_wide=4, d_class=len(manifest.class_list), window_samples=192)
        prepared = train.prepare_records(manifest, np.arange(len(manifest.entries)), record_io.lead_subset("two"),
                                         TOY_PREPROCESS, FeatureConfig(), config.d_wide)
        param_bytes = model.parameter_count(config) * 8
        cfg = toy_train_config(batch_size_train=2, max_steps=2, eval_every=2)
        adam_step, marks = ag.adam_step, []

        def marking_adam_step(params, grads, state, *args, **kwargs):
            out = adam_step(params, grads, state, *args, **kwargs)
            if state["t"] == cfg.max_steps:
                tracemalloc.reset_peak()
                marks.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(ag, "adam_step", marking_adam_step)
        fa = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=int), 1)
        tracemalloc.start()
        try:
            train.train_fold(manifest, fa, -1, config, TOY_PREPROCESS, cfg, weights, tmp_path / "m", prepared=prepared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(marks) == 1
        assert peak - marks[0] < 0.25 * param_bytes, (peak - marks[0]) / param_bytes


# One sample's training graph (about 21 MB, over half of GRAPH_BUDGET) outweighs these parameters (2.9 MB) several
# times over.
WIDE_WINDOW = model.ModelConfig(num_leads=12, d_model=64, num_layers=12, num_heads=8, d_ff=64, d_deep=8,
                                d_wide=4, d_class=3, window_samples=7680)


class TestGraphBudget:
    def test_paper_runs_one_sample_per_graph_and_toy_the_whole_batch(self):
        paper = model.ModelConfig(num_leads=12)
        assert model.graph_bytes(paper) > model.GRAPH_BUDGET
        assert model.records_per_forward(paper, 2) == 1
        assert model.records_per_forward(paper, 8) == 1
        assert model.records_per_forward(WIDE_WINDOW, 2) == 1
        assert model.records_per_forward(toy_model_config(), 8) == 8
        twelve_lead_toy = model.ModelConfig(**{**toy_model_config().__dict__, "num_leads": 12})
        assert model.records_per_forward(twelve_lead_toy, 8) == 8
        assert model.records_per_forward(toy_model_config(), 3) == 3

    @pytest.mark.parametrize("itemsize", [8, 4])
    def test_split_of_each_benchmarked_configuration(self, itemsize):
        # The README toy model and its twelve-lead variant (score-cohort's) run a batch of 8 as one graph; the paper
        # configuration runs one record per graph, in training as in validation.
        twelve_lead_toy = model.ModelConfig(**{**toy_model_config().__dict__, "num_leads": 12})
        paper = model.ModelConfig(num_leads=12)
        for config, batch, per_graph in ((toy_model_config(), 8, 8), (twelve_lead_toy, 8, 8), (paper, 2, 1),
                                         (paper, 4, 1)):
            assert model.records_per_forward(config, batch, itemsize) == per_graph, (config.num_leads, batch)

    @pytest.mark.parametrize("config, batch", [(toy_model_config(), 8), (WIDE_WINDOW, 1)])
    def test_estimate_is_near_the_graph_a_forward_keeps(self, config, batch):
        params = model.init_params(config, seed=1)
        rng = np.random.default_rng(6)
        windows = [dsp.ProcessedWindow(rng.uniform(-1.0, 1.0, size=(config.num_leads, config.window_samples)),
                                       config.window_samples, 0) for _ in range(batch)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = model.forward(windows, rng.normal(size=(batch, config.d_wide)), params, config, mode="train",
                                rng=[np.random.default_rng(s) for s in range(batch)])
            kept = (tracemalloc.get_traced_memory()[0] - start) / batch
            del out
        finally:
            tracemalloc.stop()
        assert 0.8 < model.graph_bytes(config) / kept < 1.25, (model.graph_bytes(config), kept)

    def test_paper_width_graph_keeps_only_what_its_backward_reads(self):
        # One record through two paper-width layers in train mode. When every op output stayed alive for its
        # consumer, the graph held 51.4 MB, and 30.0 MB once it kept only what its backwards read. With boolean
        # dropout draws, the attention dropout fused into the value product and GELU's tanh recomputed, it
        # keeps 20.0 MB.
        config = model.ModelConfig(num_leads=12, num_layers=2)
        params = model.init_params(config, seed=1)
        rng = np.random.default_rng(8)
        window = dsp.ProcessedWindow(rng.uniform(-1.0, 1.0, size=(12, 7680)), 7680, 0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = model.forward([window], rng.normal(size=(1, config.d_wide)), params, config, mode="train",
                                rng=[np.random.default_rng(0)])
            kept = tracemalloc.get_traced_memory()[0] - start
            del out
        finally:
            tracemalloc.stop()
        assert kept <= 21e6, kept

    def test_batch_of_two_holds_one_sample_graph(self):
        params = model.init_params(WIDE_WINDOW, seed=1)
        param_bytes = model.parameter_count(WIDE_WINDOW) * 8
        rng = np.random.default_rng(5)
        windows = [dsp.ProcessedWindow(rng.uniform(-1.0, 1.0, size=(12, 7680)), 7680, 0) for _ in range(2)]
        wide = rng.normal(size=(2, WIDE_WINDOW.d_wide))
        labels = rng.integers(0, 2, size=(2, WIDE_WINDOW.d_class)).astype(float)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = model.forward(windows[:1], wide[:1], params, WIDE_WINDOW, mode="train", rng=[np.random.default_rng(0)])
            loss = ag.binary_cross_entropy(out.probabilities, labels[:1], per_slot=True)
            graph_bytes = tracemalloc.get_traced_memory()[0] - start
            del out, loss
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            train.batch_gradients(windows, wide, labels, [np.random.default_rng(s) for s in (0, 1)], params,
                                  WIDE_WINDOW, {name: np.zeros_like(t.data) for name, t in params.trainable().items()})
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert graph_bytes > 4 * param_bytes
        # One graph, the running gradient total and what one reverse pass has in flight; two graphs exceed it.
        assert peak < 1.25 * graph_bytes + 2 * param_bytes, (peak / graph_bytes, param_bytes / graph_bytes)


def test_toy_training_step_graph_size(monkeypatch):
    # One README-toy training step of 8 records (one graph): its non-leaf nodes, and the finiteness scans of its
    # forward (each node's output, each input constant) and backward (each node's incoming gradient).
    config = toy_model_config()
    params = model.init_params(config, seed=1)
    rng = np.random.default_rng(7)
    windows = [dsp.ProcessedWindow(rng.uniform(-1.0, 1.0, size=(2, 192)), 192, 0) for _ in range(8)]
    wide, labels = rng.normal(size=(8, config.d_wide)), rng.integers(0, 2, size=(8, config.d_class)).astype(float)
    checks, nodes = [], []
    check_finite, collect_gradients = ag._check_finite, ag.collect_gradients

    def counted_check(data, op):
        checks.append(op)
        check_finite(data, op)

    def counted_collect(loss, wanted, into):
        nodes.extend(n for n in ag._topo_order(loss) if n._backward is not None)
        return collect_gradients(loss, wanted, into)

    monkeypatch.setattr(ag, "_check_finite", counted_check)
    monkeypatch.setattr(ag, "collect_gradients", counted_collect)
    train.batch_gradients(windows, wide, labels, [np.random.default_rng(s) for s in range(8)], params, config,
                          {name: np.zeros_like(t.data) for name, t in params.trainable().items()})
    assert len(nodes) <= 57, len(nodes)
    assert len(checks) <= 116, len(checks)
    checks.clear()
    model.forward(windows, wide, params, config, mode="eval")
    assert len(checks) <= 50, len(checks)


@pytest.fixture(scope="module")
def ten_record_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cv_corpus")
    synth.generate_corpus(root, num_records=10, seed=5)
    class_map = record_io.load_class_map(root / "class_map.csv")
    manifest = record_io.build_manifest(root, class_map)
    weights = metrics.load_weight_matrix(root / "weights.csv", synth.NORMAL_CLASS)
    return manifest, weights


class TestRunCV:
    def test_two_fold_report_structure(self, ten_record_corpus, tmp_path):
        manifest, weights = ten_record_corpus
        fa = stratify.stratified_folds(manifest.label_matrix(), k=2, seed=4)
        cv = train.run_cv(manifest, fa, toy_model_config(), TOY_PREPROCESS,
                          toy_train_config(max_steps=6, eval_every=3), weights, tmp_path / "cv")
        assert len(cv.fold_reports) == 2
        lines = (tmp_path / "cv" / "cv_report.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 + 1  # header + 2 folds + mean
        assert lines[-1].startswith("mean,")
        assert lines[0].split(",")[:3] == ["fold", "challenge_metric", "auroc_macro"]

    def test_each_record_parsed_once(self, ten_record_corpus, tmp_path, monkeypatch):
        manifest, weights = ten_record_corpus
        fa = stratify.stratified_folds(manifest.label_matrix(), k=3, seed=4)
        parsed = []

        def counting_parse(path, leads=None):
            parsed.append(str(path))
            return record_io.parse_record(path, leads)

        monkeypatch.setattr(train, "parse_record", counting_parse)
        train.run_cv(manifest, fa, toy_model_config(), TOY_PREPROCESS,
                     toy_train_config(max_steps=2, eval_every=2, standardize_wide=True), weights, tmp_path / "cv")
        assert sorted(parsed) == sorted(e.file_path for e in manifest.entries)

    def test_partition_degeneracy(self, ten_record_corpus, tmp_path):
        # Validation == training data: the reported fold metric equals the
        # train-set metric computed independently from the artifacts.
        manifest, weights = ten_record_corpus
        fa = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=int), 1)
        params, thresholds, report = train.train_fold(manifest, fa, -1, toy_model_config(), TOY_PREPROCESS,
                                                      toy_train_config(max_steps=6, eval_every=3), weights,
                                                      tmp_path / "deg")
        prepared = train.prepare_records(manifest, np.arange(len(manifest.entries)), record_io.lead_subset("two"),
                                         TOY_PREPROCESS, FeatureConfig(), 4)
        probs = train.predict_probabilities([prepared[i] for i in range(len(manifest.entries))], params,
                                            toy_model_config(), TOY_PREPROCESS)
        train_metric = metrics.challenge_metric(manifest.label_matrix(), train.apply_thresholds(probs, thresholds), weights)
        assert abs(train_metric - report.challenge) < 1e-12


class TestPrepareRecordsSharedCaches:
    def _clear_caches(self):
        for cached in (dsp._tap_spectrum, dsp.fft_length, features._qrs_bandpass):
            cached.cache_clear()

    @pytest.mark.parametrize("subset", ["two", "twelve"])
    def test_two_threads_give_the_bytes_of_one_from_empty_caches(self, ten_record_corpus, subset):
        # Preparation threads share the tap-spectrum and detector-bandpass caches; whichever thread fills an
        # entry, every record gets the bytes a single thread gives it.
        manifest, _ = ten_record_corpus
        assert {e.sampling_rate_hz for e in manifest.entries} == {257.0, 500.0, 1000.0}
        everything = np.arange(len(manifest.entries))
        prepared = {}
        for threads in (1, 2):
            self._clear_caches()
            prepared[threads] = train.prepare_records(manifest, everything, record_io.lead_subset(subset),
                                                      dsp.PreprocessConfig(), FeatureConfig(), 22, threads)
        for i in everything:
            one, two = prepared[1][int(i)], prepared[2][int(i)]
            assert one.processed.tobytes() == two.processed.tobytes(), i
            assert one.wide.tobytes() == two.wide.tobytes(), i
