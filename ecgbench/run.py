"""ecgformer benchmark runner (stdlib + NumPy).

    python3 ecgbench/run.py --workload toy-cv --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The runner writes a seeded corpus, times
set-up (import, ``manifest``, ``folds``) in fresh child processes, then runs
the workload's rounds of ``train``, ``evaluate`` and ``predict`` in one fresh
child process that drives ``ecgformer.cli.main`` in-process. It checks every
output against its own recomputation and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and once
traced, checks that both wrote the same bytes, and reports the per-layer
metrics. See README.md in this directory for workloads, statistics and
reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import corpus  # noqa: E402
from tracer import OPS  # noqa: E402

OUT_DIR = ".ecgbench_runs"  # under the checkout root; ignored by git
RUN_DEADLINE_S = 175  # a whole run, children included, ends within this
SETUP_REPEATS = 4  # before and again after the pipeline child, so set-up samples two moments of the host
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# README toy model; each workload adds its own [train] keys.
TOY = {
    "preprocess": {"window_samples": 192},
    "model": {"d_model": 16, "num_layers": 2, "num_heads": 2, "d_ff": 16, "d_deep": 8, "d_wide": 4},
}

WORKLOADS = {
    "toy-cv": {
        # One rate and one length, so fold 0 (the predicted set) holds the same signal for every seed.
        "records": 64, "rates_hz": (1000.0,), "duration_s": (10.0, 10.0), "k": 4, "fold": "all",
        "config": {**TOY, "train": {"batch_size_train": 8, "learning_rate": 0.003, "max_steps": 40,
                                    "eval_every": 20, "lead_subset": "two"}},
        "predict": "fold0", "predict_passes": 3,
    },
    "paper-12lead": {
        "records": 4, "rates_hz": (500.0,), "duration_s": (16.0, 18.0), "k": 2, "fold": "-1",
        "config": {"train": {"batch_size_train": 2, "batch_size_val": 2, "max_steps": 6, "eval_every": 6,
                             "lead_subset": "twelve"}},
        "predict": "all", "predict_passes": 1,
    },
    "score-cohort": {
        "records": 160, "rates_hz": (257.0, 500.0, 1000.0), "duration_s": (8.0, 12.0), "k": 4, "fold": "-1",
        "config": {**TOY, "train": {"batch_size_train": 8, "learning_rate": 0.003, "max_steps": 48,
                                    "eval_every": 48, "lead_subset": "twelve"}},
        "predict": 24, "predict_passes": 3,
    },
}

# Minimal sizes for smoke.py: same code paths, seconds instead of minutes.
SMOKE = {
    "toy-cv": {"records": 24, "k": 2, "train": {"max_steps": 4, "eval_every": 2}},
    "paper-12lead": {"records": 2, "model": {"num_layers": 1}, "train": {"max_steps": 2, "eval_every": 2}},
    "score-cohort": {"records": 24, "train": {"max_steps": 2, "eval_every": 2}, "predict": 3},
}

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "train_step_ms": "ms", "eval_records_per_s": "1/s",
                    "predict_ms": "ms", "peak_rss_mb": "MB"}


def workload_spec(name: str, smoke: bool) -> dict:
    spec = json.loads(json.dumps(WORKLOADS[name]))
    if smoke:
        small = SMOKE[name]
        spec["records"] = small["records"]
        spec["k"] = small.get("k", spec["k"])
        spec["predict"] = small.get("predict", spec["predict"])
        for section in ("model", "train"):
            spec["config"].setdefault(section, {}).update(small.get(section, {}))
    return spec


def write_ini(path: Path, config: dict):
    lines = []
    for section, keys in config.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n")


def run_child(plan: dict, plan_path: Path, src: Path, deadline: float) -> dict:
    """Run child.py on a plan in a fresh process, killed at `deadline` (time.monotonic); returns its result JSON."""
    plan_path.write_text(json.dumps(plan))
    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONPATH", None)
    with open(plan_path.with_suffix(".log"), "w") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), str(plan_path)],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(src.parent))
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not Path(plan["result"]).exists():
        tail = plan_path.with_suffix(".log").read_text()[-2000:]
        raise RuntimeError(f"child {plan_path.name} exited {code}:\n{tail}")
    return json.loads(Path(plan["result"]).read_text())


class Workload:
    """File layout and CLI argument lists of one workload run."""

    def __init__(self, name: str, spec: dict, seed: int, work: Path):
        self.name, self.spec, self.seed = name, spec, seed
        self.data = work / "data"
        self.ini = work / "config.ini"

    def prepare(self):
        self.layout = corpus.generate(self.data, self.spec["records"], self.seed, self.spec["rates_hz"],
                                      self.spec["duration_s"])
        config = json.loads(json.dumps(self.spec["config"]))
        config["train"].update({"seed": self.seed, "normal_class": corpus.NORMAL_CLASS, "folds": self.spec["k"]})
        write_ini(self.ini, config)
        self.ids, self.classes, self.labels = checks.labels_from_headers(self.data, self.data / "class_map.csv")

    def setup_plan(self, child_dir: Path) -> dict:
        return {
            "manifest": ["manifest", "--data", str(self.data), "--class-map", str(self.data / "class_map.csv"),
                         "--out", str(child_dir / "manifest.csv")],
            "folds": ["folds", "--manifest", str(child_dir / "manifest.csv"), "--k", str(self.spec["k"]),
                      "--seed", str(self.seed), "--out", str(child_dir / "folds.csv")],
        }

    def fold_runs(self, fold_of: dict[str, int]) -> list[tuple[str, str, list[str]]]:
        """(report fold label, run dir relative to the round, validation record ids) per fold."""
        if self.spec["fold"] == "-1":
            return [("-1", "run", list(self.ids))]
        return [(str(f), f"runs/fold{f}", [r for r in self.ids if fold_of[r] == f]) for f in range(self.spec["k"])]

    def predicted_ids(self, fold_of: dict[str, int]) -> list[str]:
        choice = self.spec["predict"]
        if choice == "all":
            return list(self.ids)
        if choice == "fold0":
            return [r for r in self.ids if fold_of[r] == 0]
        # Evenly spaced layout slots: the same rates and lengths for every seed.
        step = len(self.layout) / choice
        return sorted(self.layout[int(i * step)] for i in range(choice))

    def pipeline_plan(self, child_dir: Path, manifest_dir: Path, fold_of: dict[str, int], seconds: float) -> dict:
        manifest, folds = str(manifest_dir / "manifest.csv"), str(manifest_dir / "folds.csv")
        weights = str(self.data / "weights.csv")
        round_dir = child_dir / "round"
        runs = self.fold_runs(fold_of)
        if self.spec["fold"] == "-1":
            train = ["train", "--manifest", manifest, "--fold", "-1", "--out", str(round_dir / "run")]
            evaluate = ["evaluate", "--manifest", manifest, "--runs", str(round_dir / "run")]
        else:
            train = ["train", "--manifest", manifest, "--folds", folds, "--fold", "all", "--out", str(round_dir / "runs")]
            evaluate = ["evaluate", "--manifest", manifest, "--folds", folds, "--runs", str(round_dir / "runs")]
        train += ["--weights", weights, "--config", str(self.ini), "--threads", "1"]
        evaluate += ["--weights", weights, "--out", str(round_dir / "report.csv"), "--threads", "1"]

        def predict(record_id: str, run: str, out: Path) -> list[str]:
            return ["predict", "--record", str(self.data / f"{record_id}.hea"), "--run", str(round_dir / run),
                    "--out", str(out)]

        # The round predicts with the first fold's run; the checks need every
        # fold member predicted by its own fold's run, done once after the rounds.
        predicted = self.predicted_ids(fold_of)
        prob_files = {run: {} for _, run, _ in runs}
        timed_predict, check_predict = [], []
        for r in predicted:
            prob_files[runs[0][1]][r] = str(round_dir / f"pred_{r}.csv")
        for _ in range(self.spec["predict_passes"]):
            timed_predict += [predict(r, runs[0][1], round_dir / f"pred_{r}.csv") for r in predicted]
        for _, run, members in runs:
            for r in members:
                if r not in prob_files[run]:
                    prob_files[run][r] = str(child_dir / f"check_{run.replace('/', '_')}_{r}.csv")
                    check_predict.append(predict(r, run, prob_files[run][r]))
        hash_files = ["report.csv"] + [f"pred_{r}.csv" for r in predicted]
        for _, run, _ in runs:
            hash_files += [f"{run}/checkpoint.wft1", f"{run}/thresholds.csv"]
        return {
            **self.setup_plan(child_dir),
            "mode": "pipeline", "seconds": seconds, "round_dir": str(round_dir), "train": train,
            "evaluate": evaluate, "predict": timed_predict, "check_predict": check_predict,
            "hash_files": hash_files, "prob_files": prob_files,
        }

    # -- output checks -----------------------------------------------------------

    def check_outputs(self, plan: dict, fold_of: dict[str, int]):
        round_dir = Path(plan["round_dir"])
        _, w = checks.read_weights(self.data / "weights.csv")
        normal = self.classes.index(corpus.NORMAL_CLASS)
        report = checks.read_report(round_dir / "report.csv", self.classes)
        runs = self.fold_runs(fold_of)
        row_of = {r: i for i, r in enumerate(self.ids)}
        for label, run, members in runs:
            probs = np.array([checks.read_prediction(plan["prob_files"][run][r], r, self.classes) for r in members])
            thresholds = checks.read_thresholds(round_dir / run / "thresholds.csv", self.classes)
            labels = self.labels[[row_of[r] for r in members]]
            checks.check_fold(report[label], probs, labels, thresholds, self.classes, w, normal,
                              f"{self.name} fold {label}")
        checks.check_report_mean(report, [label for label, _, _ in runs])
        if self.name == "paper-12lead":
            layers = self.spec["config"].get("model", {}).get("num_layers", 12)
            expected = checks.parameter_count(num_leads=12, num_classes=len(self.classes), d_patch=64, d_model=768,
                                              num_layers=layers, d_ff=768, d_deep=64, d_wide=22, window_samples=7680)
            if layers == 12 and expected != 43_294_963:
                raise checks.CheckError(f"closed-form parameter count {expected} != 43,294,963")
            checks.check_checkpoint_size(round_dir / "run" / "checkpoint.wft1", expected)


def operations(plan: dict, workload: Workload, fold_of: dict) -> int:
    """Operations per round: training steps, evaluated records and predict calls."""
    steps = workload.spec["config"]["train"]["max_steps"] * len(workload.fold_runs(fold_of))
    return steps + len(workload.ids) + len(plan["predict"])


def step_intervals(stamps: list, eval_every: int) -> list[float]:
    """Seconds between consecutive adam_step returns of one fold, skipping intervals that hold a validation pass."""
    out = []
    for (t0, s0), (t1, s1) in zip(stamps, stamps[1:]):
        if t1 == t0 + 1 and t0 % eval_every != 0:
            out.append(s1 - s0)
    return out


def pipeline_seconds(round_result: dict) -> float:
    return round_result["train_s"] + round_result["evaluate_s"] + sum(round_result["predict_s"])


def end_to_end(setups: list[dict], result: dict, workload: Workload) -> dict:
    rounds = result["rounds"]
    eval_every = workload.spec["config"]["train"]["eval_every"]
    steps = [dt for r in rounds for dt in step_intervals(r["steps"], eval_every)]
    # Each record's fastest call, averaged over the fixed set of predicted records.
    fastest: dict[int, float] = {}
    for r in rounds:
        per_pass = len(r["predict_s"]) // workload.spec["predict_passes"]
        for i, dt in enumerate(r["predict_s"]):
            fastest[i % per_pass] = min(dt, fastest.get(i % per_pass, dt))
    values = {
        "setup_s": statistics.median(s["import_s"] + s["manifest_s"] + s["folds_s"] for s in setups),
        "pipeline_s": min(pipeline_seconds(r) for r in rounds),
        "train_step_ms": 1e3 * min(steps),
        "eval_records_per_s": len(workload.ids) / min(r["evaluate_s"] for r in rounds),
        "predict_ms": 1e3 * statistics.mean(fastest.values()),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_names() -> dict[str, str]:
    names = {
        "record_io.parse_record.calls": "count", "record_io.parse_record.ms": "ms",
        "record_io.parses_per_record": "ratio", "record_io.build_manifest.ms": "ms",
        "stratify.stratified_folds.ms": "ms",
        "dsp.resample.ms": "ms", "dsp.filter_signal.ms": "ms", "dsp.filter_signal.calls": "count",
        "dsp.normalize.ms": "ms", "dsp.extract_window.ms": "ms", "dsp.preprocess.ms": "ms",
        "features.record_features.ms": "ms", "features.record_features.calls": "count",
        "train.prepare_records.ms": "ms", "train.prepare_records.records": "count",
        "train.fit_thresholds.ms": "ms", "train.predict_probabilities.ms": "ms",
        "train.predict_probabilities.records": "count", "train.validation.ms": "ms",
        "model.init_params.ms": "ms", "model.forward.train_ms": "ms", "model.forward.eval_ms": "ms",
        "model.params_from_arrays.ms": "ms",
        "autograd.collect_gradients.ms": "ms", "autograd.collect_gradients.mb": "MB",
        "autograd.adam_step.ms": "ms", "autograd.graph_nodes_per_sample": "count",
    }
    for op in OPS:
        names.update({f"autograd.{op}.fwd_ms": "ms", f"autograd.{op}.bwd_ms": "ms", f"autograd.{op}.calls": "count"})
    names.update({
        "autograd.save_checkpoint.ms": "ms", "autograd.load_checkpoint.ms": "ms",
        "metrics.confusion_weighted.calls": "count", "metrics.confusion_weighted.ms": "ms",
        "metrics.challenge_metric.ms": "ms", "metrics.per_class_auroc.ms": "ms",
        "cli.train.ms": "ms", "cli.evaluate.ms": "ms", "cli.predict.ms": "ms", "trace.overhead_s": "s",
    })
    return names


def _round_layer_values(counts: dict, num_records: int) -> dict[str, float]:
    """Per-layer values of one traced round (totals per round unless named per call or per step)."""
    calls, seconds, extra = counts["calls"], counts["seconds"], counts["counts"]
    out = {}
    for name, total in seconds.items():
        if not name.startswith("autograd.") or name.split(".")[1] not in OPS:
            out[f"{name}.ms"] = 1e3 * total
    for name, n in calls.items():
        out[f"{name}.calls"] = n
    out["record_io.parses_per_record"] = calls.get("record_io.parse_record", 0) / num_records
    for key in ("train.prepare_records.records", "train.predict_probabilities.records"):
        out[key] = extra.get(key, 0)
    for mode in ("train", "eval"):
        n = calls.get(f"model.forward.{mode}", 0)
        if n:
            out[f"model.forward.{mode}_ms"] = 1e3 * seconds[f"model.forward.{mode}"] / n
    samples = calls.get("autograd.collect_gradients", 0)
    if samples:
        out["autograd.collect_gradients.mb"] = extra.get("autograd.collect_gradients.bytes", 0) / 1e6 / samples
        out["autograd.graph_nodes_per_sample"] = extra.get("autograd.graph_nodes", 0) / samples
    steps = calls.get("autograd.adam_step", 0)
    for op in OPS:
        if steps:
            out[f"autograd.{op}.calls"] = calls.get(f"autograd.{op}", 0) / steps
            out[f"autograd.{op}.fwd_ms"] = 1e3 * seconds.get(f"autograd.{op}.fwd", 0.0) / steps
            out[f"autograd.{op}.bwd_ms"] = 1e3 * seconds.get(f"autograd.{op}.bwd", 0.0) / steps
    return out


def per_layer(timed: dict, traced: dict, workload: Workload) -> tuple[dict, list[str]]:
    names = per_layer_names()
    rounds = [_round_layer_values(r["trace"], len(workload.ids)) for r in traced["rounds"]]
    setup = _round_layer_values(traced["setup_trace"], len(workload.ids))
    values = {}
    for name in names:
        if name in ("record_io.build_manifest.ms", "stratify.stratified_folds.ms"):
            if name in setup:
                values[name] = setup[name]
        elif all(name in r for r in rounds):
            values[name] = statistics.median(r[name] for r in rounds)
    values["trace.overhead_s"] = (min(pipeline_seconds(r) for r in traced["rounds"])
                                  - min(pipeline_seconds(r) for r in timed["rounds"]))
    absent = [n for n in names if n not in values]
    return {n: {"value": values[n], "unit": names[n]} for n in names if n in values}, absent


def check_same_bytes(results: list[dict], what: str):
    reference = results[0]["rounds"][0]["hashes"]
    for result in results:
        for r in result["rounds"]:
            if r["hashes"] != reference:
                differing = sorted(k for k in reference if r["hashes"].get(k) != reference[k])
                raise checks.CheckError(f"{what}: outputs differ between runs of one seed: {differing}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal corpus and model sizes (smoke.py)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "ecgformer" / "cli.py").is_file():
        print(f"error: {src / 'ecgformer'} not found; run from the root of an ecgformer checkout", file=sys.stderr)
        return 2

    spec = workload_spec(args.workload, args.smoke)
    out_dir = root / OUT_DIR
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = Workload(args.workload, spec, args.seed, work)
        workload.prepare()

        setup_dir = work / "setup"
        setup_dir.mkdir()
        setups = []

        def time_setup(repeats: int):
            for _ in range(repeats):
                i = len(setups)
                plan = {"src": str(src), "mode": "setup", "trace": False, "result": str(setup_dir / f"result{i}.json"),
                        **workload.setup_plan(setup_dir)}
                setups.append(run_child(plan, setup_dir / f"plan{i}.json", src, deadline))
                if "failed" in setups[-1]:
                    raise RuntimeError(f"set-up command {setups[-1]['failed']} exited {setups[-1]['code']}")

        time_setup(1 if args.trace else SETUP_REPEATS)
        checks.check_manifest(setup_dir / "manifest.csv", workload.ids, workload.classes, workload.labels)
        fold_of = checks.read_folds(setup_dir / "folds.csv")

        children = ["timed", "traced"] if args.trace else ["timed"]
        results, plans = {}, {}
        for kind in children:
            child_dir = work / kind
            child_dir.mkdir()
            seconds = args.seconds / len(children)
            plan = workload.pipeline_plan(child_dir, setup_dir, fold_of, seconds)
            plan.update({"src": str(src), "trace": kind == "traced", "result": str(child_dir / "result.json"),
                         "spans": str(results_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")})
            if kind == "traced":
                plan.update(workload.setup_plan(child_dir))
                plan["check_predict"] = []
            plans[kind] = plan
            results[kind] = run_child(plan, child_dir / "plan.json", src, deadline)
        if not args.trace:
            time_setup(SETUP_REPEATS)

        rounds = [r for res in results.values() for r in res.get("rounds", [])]
        attempted = max(len(rounds), 1) * operations(plans["timed"], workload, fold_of)
        failures = [res for res in list(results.values()) + rounds if "failed" in res]
        if failures:
            print(f"error: {failures[0]['failed']} exited {failures[0].get('code')}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
            return 1

        correct = True
        try:
            workload.check_outputs(plans["timed"], fold_of)
            check_same_bytes(list(results.values()), args.workload)
            if args.trace:
                for name in ("manifest.csv", "folds.csv"):
                    if (setup_dir / name).read_bytes() != (work / "traced" / name).read_bytes():
                        raise checks.CheckError(f"traced {name} differs from the untraced one")
        except checks.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

        if args.trace:
            metrics, absent = per_layer(results["timed"], results["traced"], workload)
            if absent:
                print("absent: " + " ".join(absent))
        else:
            metrics = end_to_end(setups, results["timed"], workload)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "setups": setups,
                  "results": results, "metrics": metrics}
        (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
