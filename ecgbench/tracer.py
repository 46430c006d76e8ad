"""Out-of-program tracing: wraps ecgformer's public functions where callers look them up.

A function is wrapped in every loaded ecgformer module whose namespace holds
it, so ``train.parse_record`` (bound by ``from .record_io import``) is
wrapped along with ``record_io.parse_record``. Each wrapped call records a
span (name, start, end, parent, self time) in memory; autograd ops are too
many to keep one by one, so they are only summed: calls and forward time per
op, and the time of the backward closure each op attaches to its output.

The tracer assumes one thread, which holds for the benchmark's ``--threads 1``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Traced functions: (module, function). Span names are "<module>.<function>".
FUNCTIONS = [
    ("record_io", "parse_record"),
    ("record_io", "build_manifest"),
    ("stratify", "stratified_folds"),
    ("dsp", "resample"),
    ("dsp", "filter_signal"),
    ("dsp", "normalize"),
    ("dsp", "extract_window"),
    ("dsp", "preprocess"),
    ("features", "record_features"),
    ("train", "train_fold"),
    ("train", "prepare_records"),
    ("train", "fit_thresholds"),
    ("train", "predict_probabilities"),
    ("model", "init_params"),
    ("model", "forward"),
    ("model", "params_from_arrays"),
    ("autograd", "collect_gradients"),
    ("autograd", "adam_step"),
    ("autograd", "save_checkpoint"),
    ("autograd", "load_checkpoint"),
    ("metrics", "confusion_weighted"),
    ("metrics", "challenge_metric"),
    ("metrics", "per_class_auroc"),
    ("cli", "cmd_train"),
    ("cli", "cmd_evaluate"),
    ("cli", "cmd_predict"),
]

OPS = ["matmul", "add", "mul", "transpose", "reshape", "concat", "tensor_slice", "embedding_row_select",
       "softmax", "layer_norm", "gelu", "sigmoid", "dropout", "binary_cross_entropy"]

PACKAGE = "ecgformer"


def _span_name(module: str, function: str) -> str:
    if module == "cli" and function.startswith("cmd_"):
        return "cli." + function[4:]
    return f"{module}.{function}"


def replace_everywhere(original, wrapper):
    """Rebind every ecgformer module attribute that holds `original` to `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, self seconds]
        self.stack: list[list] = []  # [span index, start, child seconds]
        self.absent: list[str] = []
        # phase inside train_fold: "prep" until init_params returns, "steps"
        # until save_checkpoint starts, then "post"; None outside train_fold.
        self.phase = None
        self.in_prediction = 0
        self.reset_counts()

    def reset_counts(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)

    def take_counts(self) -> dict:
        """Per-name calls, inclusive seconds and counters since the last call."""
        out = {"calls": dict(self.calls), "seconds": dict(self.seconds), "counts": dict(self.counts)}
        self.reset_counts()
        return out

    # -- spans ------------------------------------------------------------------

    def enter(self, name: str):
        parent = self.stack[-1][0] if self.stack else -1
        start = time.perf_counter()
        self.spans.append([name, start, None, parent, None])
        self.stack.append([len(self.spans) - 1, start, 0.0])

    def exit(self) -> float:
        end = time.perf_counter()
        index, start, child = self.stack.pop()
        duration = end - start
        span = self.spans[index]
        span[2] = end
        span[4] = duration - child
        if self.stack:
            self.stack[-1][2] += duration
        self.calls[span[0]] += 1
        self.seconds[span[0]] += duration
        return duration

    def _charge_parent(self, seconds: float):
        if self.stack:
            self.stack[-1][2] += seconds

    def in_training_step(self) -> bool:
        return self.phase == "steps" and not self.in_prediction

    # -- wrapping ---------------------------------------------------------------

    def install(self):
        modules = {name: sys.modules.get(f"{PACKAGE}.{name}") for name, _ in FUNCTIONS}
        for module, function in FUNCTIONS:
            original = getattr(modules[module], function, None) if modules[module] else None
            name = _span_name(module, function)
            if not callable(original):
                self.absent.append(name)
                continue
            replace_everywhere(original, self._wrap_function(name, original))
        autograd = sys.modules.get(f"{PACKAGE}.autograd")
        for op in OPS:
            original = getattr(autograd, op, None) if autograd else None
            if not callable(original):
                self.absent.append(f"autograd.{op}")
                continue
            replace_everywhere(original, self._wrap_op(op, original))

    def _wrap_function(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if before is not None:
                span = before(args, kwargs) or name
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.exit()
            if after is not None:
                after(args, kwargs, duration, result)
            return result

        return wrapper

    def _wrap_op(self, op: str, fn):
        def timed_backward(backward):
            def run(grad, grads):
                start = time.perf_counter()
                backward(grad, grads)
                elapsed = time.perf_counter() - start
                self._charge_parent(elapsed)
                if self.phase == "steps":
                    self.seconds[f"autograd.{op}.bwd"] += elapsed
            return run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self._charge_parent(elapsed)
            if self.in_training_step():
                self.calls[f"autograd.{op}"] += 1
                self.seconds[f"autograd.{op}.fwd"] += elapsed
            backward = getattr(out, "_backward", None)
            # dropout in eval mode hands back its input; its closure is already wrapped.
            if backward is not None and not any(a is out for a in args):
                out._backward = timed_backward(backward)
            return out

        return wrapper

    # -- per-function hooks -------------------------------------------------------

    def _before_train_train_fold(self, args, kwargs):
        self.phase = "prep"

    def _after_train_train_fold(self, args, kwargs, duration, result):
        self.phase = None

    def _after_model_init_params(self, args, kwargs, duration, result):
        if self.phase == "prep":
            self.phase = "steps"

    def _before_autograd_save_checkpoint(self, args, kwargs):
        if self.phase == "steps":
            self.phase = "post"

    def _before_model_forward(self, args, kwargs):
        mode = kwargs.get("mode", args[4] if len(args) > 4 else "eval")
        return f"model.forward.{mode}"

    def _before_train_predict_probabilities(self, args, kwargs):
        self.in_prediction += 1

    def _after_train_predict_probabilities(self, args, kwargs, duration, result):
        self.in_prediction -= 1
        prepared = args[0] if args else kwargs["prepared"]
        self.counts["train.predict_probabilities.records"] += len(prepared)
        if self.phase == "steps":
            self.seconds["train.validation"] += duration

    def _after_metrics_challenge_metric(self, args, kwargs, duration, result):
        if self.phase == "steps":
            self.seconds["train.validation"] += duration

    def _after_train_prepare_records(self, args, kwargs, duration, result):
        indices = args[1] if len(args) > 1 else kwargs["indices"]
        self.counts["train.prepare_records.records"] += len(indices)

    def _before_autograd_collect_gradients(self, args, kwargs):
        loss = args[0] if args else kwargs["loss"]
        self.counts["autograd.graph_nodes"] += count_graph_nodes(loss)

    def _after_autograd_collect_gradients(self, args, kwargs, duration, result):
        if isinstance(result, dict):
            self.counts["autograd.collect_gradients.bytes"] += sum(g.nbytes for g in result.values())

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, self_s in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "self": self_s}) + "\n")


def count_graph_nodes(root) -> int:
    """Distinct tensors reachable from root through recorded parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in getattr(node, "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
