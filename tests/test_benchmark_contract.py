"""The parts of the program that the benchmark in ecgbench/ reads, pinned so a refactor cannot blind it.

`ecgbench/child.py` counts one training step per return of `autograd.adam_step`,
reading the step number from its third argument's `state["t"]`, and
`ecgbench/tracer.py` names each `model.forward` span by its `mode`, read as a
keyword or as the fifth positional argument, and sums the `nbytes` of the dict
`autograd.collect_gradients` returns. Both wrap a function by rebinding it in
every ecgformer module that holds it. The tracer also times each op's
backward by reassigning `_backward` on the op's result, and counts a graph's
nodes by walking `_parents` from the loss.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgformer import autograd, cli, dsp, model
from ecgformer.runconfig import RunConfig

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
    run = corpus / "run"
    config = cli.RunArtifacts.load(run, RunConfig.load(run / "config_used.ini")).model_config
    parameter_set = sum(t.data.nbytes for t in model.init_params(config, 0).trainable().values())
    calls = counts["calls"]["autograd.collect_gradients"]
    assert calls == 3 and counts["counts"]["autograd.collect_gradients.bytes"] == calls * parameter_set


def _toy_step_loss(seed: int = 3):
    """A README-toy training forward of 4 records and its per-slot loss, with the parameters it ran on."""
    config = model.ModelConfig(num_leads=2, d_model=16, num_layers=2, num_heads=2, d_ff=16, d_deep=8, d_wide=4,
                               d_class=3, window_samples=192)
    params = model.init_params(config, seed=1)
    rng = np.random.default_rng(seed)
    windows = [dsp.ProcessedWindow(rng.uniform(-1.0, 1.0, size=(2, 192)), 192, 0) for _ in range(4)]
    wide, labels = rng.normal(size=(4, 4)), rng.integers(0, 2, size=(4, 3)).astype(float)
    out = model.forward(windows, wide, params, config, mode="train", rng=list(range(4)))
    return autograd.binary_cross_entropy(out.probabilities, labels, per_slot=True), params


def _gradients(loss, params):
    wanted = params.trainable()
    return autograd.collect_gradients(loss, wanted, {name: np.zeros_like(t.data) for name, t in wanted.items()})


def test_a_backward_reassigned_on_an_op_result_is_the_one_the_reverse_pass_calls(bench):
    want = _gradients(*_toy_step_loss())
    tracer = bench.Tracer()
    tracer.install()
    tracer.phase = "steps"  # as inside train_fold's steps, so the tracer records backward time
    got = _gradients(*_toy_step_loss())
    # Every traced op the model's training graph uses ran its timed backward, and the gradients did not move.
    # (With dropout live, the attention's value product is `dropout_matmul`, which the tracer does not list.)
    used = ["add", "concat", "reshape", "tensor_slice", "softmax", "layer_norm", "gelu", "sigmoid", "dropout",
            "binary_cross_entropy"]
    missing = [op for op in used if tracer.seconds.get(f"autograd.{op}.bwd", 0.0) <= 0.0]
    assert missing == []
    assert got.keys() == want.keys() and all(got[name].tobytes() == want[name].tobytes() for name in want)


def test_a_walk_over_parents_reaches_the_nodes_of_the_reverse_pass(bench):
    loss, _ = _toy_step_loss()
    reached, stack = {}, [loss]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in reached:
                reached[id(parent)] = parent
                stack.append(parent)
    order = autograd._topo_order(loss)
    assert order[-1] is loss._node and loss._node not in reached.values()
    assert {key for key, node in reached.items() if node.requires_grad} == {id(node) for node in order[:-1]}
    assert bench.count_graph_nodes(loss) == 1 + len(reached)
