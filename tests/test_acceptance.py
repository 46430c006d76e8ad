"""Acceptance gate: every criterion at its stated tolerance, one test each."""

import time

import numpy as np
import pytest

from ecgformer import attention_viz as av
from ecgformer import autograd as ag
from ecgformer import cli, dsp, metrics, model, record_io, stratify, synth, train
from ecgformer.dsp import ProcessedWindow

from oracles import (
    brute_auroc,
    brute_challenge_metric,
    central_difference_grad,
    copy_arrays,
    dtft_magnitude,
    fold_label_deviation,
    forward_one,
    gradients_into_zeros,
    max_rel_err,
    read_csv_map,
)

TOY = model.ModelConfig(
    num_leads=2, d_patch=64, d_model=16, num_layers=2, num_heads=2, d_ff=16,
    d_deep=8, d_wide=4, d_class=3, window_samples=192,
)

LEAD_WIDTHS = {"twelve": 768, "six": 384, "four": 256, "three": 192, "two": 128}

TOY_INI = """\
[preprocess]
window_samples = 192

[model]
d_model = 16
num_layers = 2
num_heads = 2
d_ff = 16
d_deep = 8
d_wide = 4

[train]
batch_size_train = 8
batch_size_val = 8
learning_rate = 0.003
max_steps = 10
eval_every = 5
folds = 2
lead_subset = two
normal_class = SR
seed = 1
"""


def test_a1_gradient_integrity():
    """Toy-config BCE gradients match central differences within 1e-4 relative."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    window = ProcessedWindow(rng.uniform(-1, 1, size=(2, 192)), 192, 0)
    wide = rng.normal(size=TOY.d_wide)
    targets = rng.integers(0, 2, size=TOY.d_class).astype(float)
    params = model.init_params(TOY, seed=1)
    arrays = copy_arrays(params)

    live = model.params_from_arrays(arrays, TOY)
    # An eval forward records no graph; train mode without dropout is the same forward with one.
    no_dropout = model.ModelConfig(**{**TOY.__dict__, "dropout_encoder": 0.0, "dropout_head": 0.0})
    out = forward_one(window, wide, live, no_dropout, mode="train")
    loss = ag.binary_cross_entropy(out.probabilities, targets)
    analytic = gradients_into_zeros(loss, live.trainable())

    def loss_at(probe_arrays):
        p = model.params_from_arrays(probe_arrays, TOY)
        o = forward_one(window, wide, p, TOY, mode="eval")
        return ag.binary_cross_entropy(o.probabilities, targets).item()

    worst = 0.0
    for name in live.trainable():
        base = arrays[name].copy()

        def f(x, name=name):
            probe = dict(arrays)
            probe[name] = x
            return loss_at(probe)

        numeric = central_difference_grad(f, base, h=1e-5)
        err = max_rel_err(analytic[name], numeric)
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: max relative error {err}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s (budget 60s)"


def test_a2_overfit_convergence(tmp_path):
    """8 records, toy config, 500 Adam steps: train BCE < 0.05, metric 1.0."""
    start = time.monotonic()
    data = tmp_path / "data"
    synth.generate_corpus(data, num_records=8, seed=3)
    class_map = record_io.load_class_map(data / "class_map.csv")
    manifest = record_io.build_manifest(data, class_map)
    weights = metrics.load_weight_matrix(data / "weights.csv", synth.NORMAL_CLASS)

    model_config = model.ModelConfig(
        num_leads=2, d_patch=64, d_model=16, num_layers=2, num_heads=2, d_ff=16,
        d_deep=8, d_wide=22, d_class=len(manifest.class_list), window_samples=192,
    )
    train_config = train.TrainConfig(
        batch_size_train=8, learning_rate=1e-2, max_steps=500,
        seed=1, eval_every=100, lead_subset="two", normal_class=synth.NORMAL_CLASS,
    )
    assignment = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=np.int64), 1)
    _, thresholds, report = train.train_fold(
        manifest, assignment, -1, model_config, dsp.PreprocessConfig(window_samples=192),
        train_config, weights, tmp_path / "run",
    )
    assert report.loss_curve[-1] < 0.05, f"final train BCE {report.loss_curve[-1]}"
    assert report.challenge == 1.0, f"train challenge metric {report.challenge}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s (budget 300s)"


@pytest.mark.parametrize("subset_name", ["twelve", "six", "four", "three", "two"])
def test_a3_shape_fidelity(subset_name):
    """Default config: 120 tokens, sequence 121, head input 86, output 26."""
    subset = record_io.lead_subset(subset_name)
    cfg = model.ModelConfig(num_leads=len(subset.leads))
    assert cfg.num_patches == 120
    assert cfg.d_token == LEAD_WIDTHS[subset_name]

    rng = np.random.default_rng(4)
    window = ProcessedWindow(rng.uniform(-1, 1, size=(cfg.num_leads, 7680)), 7680, 0)
    tokens = model.patchify(window, cfg)
    assert tokens.shape == (120, LEAD_WIDTHS[subset_name])

    params = model.init_params(cfg, seed=0)
    assert params["head.fc2.weight"].shape == (64 + 22, 26)  # head input width 86
    out = forward_one(window, rng.normal(size=22), params, cfg, capture_attention=True)
    assert out.logits.shape == (26,)
    assert out.probabilities.shape == (26,)
    for maps in out.attention_maps:
        assert maps.shape == (12, 121, 121)  # sequence length N+1 = 121


def test_a4_filter_response():
    """|H(0)| < 0.01, passband within 1 dB at 10/20/30/40 Hz, |H(100)| < 0.01."""
    start = time.monotonic()
    taps = dsp.design_bandpass(dsp.PreprocessConfig(fir_taps=513))
    mags = dtft_magnitude(taps, [0.0, 10.0, 20.0, 30.0, 40.0, 100.0], 500.0)
    assert mags[0] < 0.01, f"|H(0)| = {mags[0]}"
    one_db = 10 ** (1.0 / 20.0)
    for f_hz, m in zip([10, 20, 30, 40], mags[1:5]):
        assert 1.0 / one_db <= m <= one_db, f"|H({f_hz})| = {m}"
    assert mags[5] < 0.01, f"|H(100)| = {mags[5]}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"filter check took {elapsed:.2f}s (budget 1s)"


def test_a5_metric_oracles():
    """Challenge metric vs brute force (1e-12); AUROC vs pair count (exact)."""
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        r = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        labels = rng.integers(0, 2, size=(r, c))
        preds = rng.integers(0, 2, size=(r, c))
        normal = int(rng.integers(0, c))
        w = rng.uniform(0, 1, size=(c, c))
        np.fill_diagonal(w, 1.0)
        wm = metrics.WeightMatrix(w, [f"c{i}" for i in range(c)], normal)
        try:
            got = metrics.challenge_metric(labels, preds, wm)
        except metrics.UndefinedScoreError:
            continue
        want = brute_challenge_metric(labels, preds, w, normal)
        assert abs(got - want) <= 1e-12
        assert metrics.challenge_metric(labels, labels, wm) == 1.0
        normal_only = np.zeros_like(labels)
        normal_only[:, normal] = 1
        assert metrics.challenge_metric(labels, normal_only, wm) == 0.0
        checked += 1

    for _ in range(1000):
        n = int(rng.integers(2, 14))
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        want = brute_auroc(scores, labels)
        got = metrics.auroc(scores, labels)
        assert got == want if want is not None else got is None


def test_a6_stratification_quality():
    """Stratified deviation strictly below the mean of 100 random shuffles."""
    rng = np.random.default_rng(6)
    freqs = np.linspace(0.02, 0.4, 10)
    labels = (rng.random((1000, 10)) < freqs).astype(np.int64)
    fa = stratify.stratified_folds(labels, k=10, seed=7)
    fa_again = stratify.stratified_folds(labels, k=10, seed=7)
    np.testing.assert_array_equal(fa.fold_of, fa_again.fold_of)

    ours = fold_label_deviation(labels, fa)
    base = np.repeat(np.arange(10), 100)
    shuffle_devs = [
        fold_label_deviation(labels, stratify.FoldAssignment(np.random.default_rng(s).permutation(base), 10))
        for s in range(100)
    ]
    assert ours < float(np.mean(shuffle_devs)), f"{ours} vs shuffle mean {np.mean(shuffle_devs)}"


def test_a7_attention_normalization_and_export(tmp_path):
    """Rows sum to 1 within 1e-6; CSV round-trips within 1e-6; PGM 120x120."""
    cfg = model.ModelConfig(num_leads=2)
    params = model.init_params(cfg, seed=8)
    rng = np.random.default_rng(8)
    window = ProcessedWindow(rng.uniform(-1, 1, size=(2, 7680)), 7680, 0)
    wide = rng.normal(size=22)
    for layer in (0, cfg.num_layers - 1):
        amap = av.extract_attention(window, wide, params, cfg, layer=layer, head_mode="mean")
        np.testing.assert_allclose(amap.matrix.sum(axis=-1), 1.0, atol=1e-6)
        assert (amap.matrix >= 0).all()

    amap = av.extract_attention(window, wide, params, cfg, layer=cfg.num_layers - 1)
    csv_path = av.export_heatmap(amap, window.signal[1], tmp_path / "map.csv", fmt="csv")
    back = read_csv_map(csv_path)
    assert np.max(np.abs(back - amap.patch_submatrix)) < 1e-6
    np.testing.assert_allclose(back.sum(axis=-1), amap.patch_submatrix.sum(axis=-1), atol=1e-6)

    pgm_path = av.export_heatmap(amap, window.signal[1], tmp_path / "map.pgm", fmt="pgm")
    assert pgm_path.read_bytes().startswith(b"P5\n120 120\n255\n")


def test_a8_preprocessing_contract():
    """1000 random inputs: shape (leads x 7680), values in [-1,1], zero tail."""
    cfg = dsp.PreprocessConfig()
    rng = np.random.default_rng(9)
    for i in range(1000):
        n = int(rng.integers(64, 12000))
        rate = float(rng.choice([128.0, 257.0, 500.0, 977.0]))
        x = rng.normal(scale=rng.uniform(0.05, 20.0), size=(2, n))
        window = dsp.preprocess(x, rate, cfg, "random", seed=i)
        assert window.signal.shape == (2, 7680)
        assert np.max(np.abs(window.signal)) <= 1.0
        assert not window.signal[:, window.pad_start :].any()

    y = rng.normal(size=(3, 400)) * 11.0
    once = dsp.normalize(y)
    twice = dsp.normalize(once)
    assert np.max(np.abs(twice - once)) < 1e-12


def _run_chain(root, threads: int, subprocess_mode: bool = False):
    import subprocess
    import sys

    def invoke(argv):
        if subprocess_mode:
            result = subprocess.run([sys.executable, "-m", "ecgformer.cli"] + argv, capture_output=True)
            assert result.returncode == 0, result.stderr
        else:
            assert cli.main(argv) == 0

    data = root / "data"
    if not data.exists():
        invoke(["synth", "--out", str(data), "--records", "10", "--seed", "2"])
        (root / "toy.ini").write_text(TOY_INI)
        invoke(["manifest", "--data", str(data), "--class-map", str(data / "class_map.csv"),
                "--out", str(root / "manifest.csv")])
        invoke(["folds", "--manifest", str(root / "manifest.csv"), "--k", "2", "--seed", "3",
                "--out", str(root / "folds.csv")])
    tag = f"t{threads}_{len(list(root.glob('run_*')))}"
    run = root / f"run_{tag}"
    invoke(["train", "--manifest", str(root / "manifest.csv"), "--folds", str(root / "folds.csv"),
            "--fold", "all", "--weights", str(data / "weights.csv"), "--out", str(run),
            "--config", str(root / "toy.ini"), "--threads", str(threads)])
    report = root / f"report_{tag}.csv"
    invoke(["evaluate", "--manifest", str(root / "manifest.csv"), "--folds", str(root / "folds.csv"),
            "--runs", str(run), "--weights", str(data / "weights.csv"),
            "--out", str(report), "--threads", str(threads)])
    return report.read_bytes()


def test_a9_end_to_end_determinism(tmp_path):
    """manifest->folds->train->evaluate is byte-identical across runs and thread counts."""
    first = _run_chain(tmp_path, threads=1)
    second = _run_chain(tmp_path, threads=1)
    threaded = _run_chain(tmp_path, threads=4)
    other_process = _run_chain(tmp_path, threads=1, subprocess_mode=True)
    assert first == second
    assert first == threaded
    assert first == other_process


def test_a10_format_round_trips(tmp_path):
    """Record files and checkpoints survive write->read->write byte-identically."""
    rng = np.random.default_rng(10)
    for i in range(10):
        record = synth.make_record(i, seed=11, num_leads=int(rng.integers(1, 13)))
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        record_io.write_record(record, dir_a)
        back = record_io.parse_record(dir_a / f"{record.record_id}.hea")
        assert np.max(np.abs(back.signal - record.signal)) <= 0.5 / 1000.0  # quantization bound
        record_io.write_record(back, dir_b)
        assert (dir_a / f"{record.record_id}.hea").read_bytes() == (dir_b / f"{record.record_id}.hea").read_bytes()
        assert (dir_a / f"{record.record_id}.dat").read_bytes() == (dir_b / f"{record.record_id}.dat").read_bytes()

    arrays = {"w": rng.normal(size=(9, 4)), "b": rng.normal(size=4), "s": np.array(1.5)}
    p1, p2 = tmp_path / "c1.wft1", tmp_path / "c2.wft1"
    ag.save_checkpoint(p1, arrays)
    ag.save_checkpoint(p2, ag.load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()
