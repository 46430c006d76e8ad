"""The parts of the program that the benchmark in ecgbench/ reads, pinned so a refactor cannot blind it.

`ecgbench/child.py` counts one training step per return of `autograd.adam_step`,
reading the step number from its third argument's `state["t"]`, and
`ecgbench/tracer.py` names each `model.forward` span by its `mode`, read as a
keyword or as the fifth positional argument, and sums the `nbytes` of the dict
`autograd.collect_gradients` returns. Both wrap a function by rebinding it in
every ecgformer module that holds it.
"""

import inspect
import sys
from pathlib import Path

import pytest

from ecgformer import autograd, cli, model

BENCH = Path(__file__).resolve().parent.parent / "ecgbench"

INI = """\
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
batch_size_train = 4
max_steps = 3
eval_every = 2
lead_subset = two
normal_class = SR
"""


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's tracer module; every ecgformer module attribute it rebinds is restored afterwards."""
    saved = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
             if mod is not None and (name == "ecgformer" or name.startswith("ecgformer."))}
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    yield tracer
    for name, attrs in saved.items():
        for attr, value in attrs.items():
            setattr(sys.modules[name], attr, value)


@pytest.fixture
def corpus(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--records", "6", "--seed", "4"]) == 0
    (tmp_path / "toy.ini").write_text(INI)
    assert cli.main(["manifest", "--data", str(data), "--class-map", str(data / "class_map.csv"),
                     "--out", str(tmp_path / "manifest.csv")]) == 0
    return tmp_path


def _train(root, out) -> list[str]:
    return ["train", "--manifest", str(root / "manifest.csv"), "--fold", "-1", "--weights",
            str(root / "data" / "weights.csv"), "--out", str(out), "--config", str(root / "toy.ini")]


def test_forward_takes_mode_as_fifth_argument():
    assert list(inspect.signature(model.forward).parameters).index("mode") == 4


def test_one_adam_step_per_training_step(bench, corpus):
    # As child.py stamps an untraced run: wrap adam_step wherever it is bound.
    steps = []
    original = autograd.adam_step

    def stamped(params, grads, state, *args, **kwargs):
        out = original(params, grads, state, *args, **kwargs)
        steps.append(state["t"])
        return out

    bench.replace_everywhere(original, stamped)
    assert cli.main(_train(corpus, corpus / "run")) == 0
    assert steps == [1, 2, 3]


def test_tracer_finds_every_function_and_both_forward_modes(bench, corpus):
    tracer = bench.Tracer()
    tracer.install()
    assert tracer.absent == []
    assert cli.main(_train(corpus, corpus / "run")) == 0
    assert cli.main(["predict", "--record", str(corpus / "data" / "synth00000.hea"), "--run", str(corpus / "run"),
                     "--out", str(corpus / "p.csv")]) == 0
    counts = tracer.take_counts()
    calls = counts["calls"]
    assert calls["autograd.adam_step"] == 3
    # Three training steps of one batch-of-4 graph each; validation at steps 2 and 3, the
    # final threshold fit and predict run eval forwards.
    assert calls["model.forward.train"] == 3
    assert calls["autograd.collect_gradients"] == 3
    assert calls["model.forward.eval"] == 4
    assert "model.forward" not in calls and "model.forward.None" not in calls
    assert counts["counts"]["train.predict_probabilities.records"] == 3 * 6


def test_traced_train_stamps_each_step_and_collects_one_parameter_set(bench, corpus):
    # child.py's stamp reads state["t"] after each adam_step; the tracer sums the nbytes of the dict that
    # collect_gradients returns, which is the step's gradient total: one parameter set per call.
    tracer = bench.Tracer()
    tracer.install()
    steps = []
    traced = autograd.adam_step

    def stamped(params, grads, state, *args, **kwargs):
        out = traced(params, grads, state, *args, **kwargs)
        steps.append(state["t"])
        return out

    bench.replace_everywhere(traced, stamped)
    assert cli.main(_train(corpus, corpus / "run")) == 0
    counts = tracer.take_counts()
    assert steps == [1, 2, 3] and counts["calls"]["autograd.adam_step"] == 3
    config = model.ModelConfig.from_text((corpus / "run" / "model_config.txt").read_text(), "model_config.txt")
    parameter_set = sum(t.data.nbytes for t in model.init_params(config, 0).trainable().values())
    calls = counts["calls"]["autograd.collect_gradients"]
    assert calls == 3 and counts["counts"]["autograd.collect_gradients.bytes"] == calls * parameter_set
