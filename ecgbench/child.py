"""One benchmark child process: drives ecgformer's CLI in-process from a plan file.

Usage: python3 child.py <plan.json>

The plan (written by run.py) names the checkout's ``src`` directory, the
mode, and the argument lists to hand to ``ecgformer.cli.main``:

- mode "setup": time ``import ecgformer.cli``, then ``manifest`` and ``folds``.
- mode "pipeline": repeat whole rounds of ``train``, ``evaluate`` and the
  ``predict`` calls until ``seconds`` have passed (at least one round), then
  run the untimed ``check_predict`` calls the output checks need.

Untraced, the only instrumentation is one timestamp per return of
``autograd.adam_step``. With ``trace`` set, tracer.Tracer wraps the public
functions first and the spans go to the plan's ``spans`` path.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run(cli, argv: list[str]) -> tuple[float, int]:
    start = time.perf_counter()
    code = cli.main(argv)
    return time.perf_counter() - start, code


def _setup(plan: dict, cli) -> dict:
    manifest_s, code = _run(cli, plan["manifest"])
    if code != 0:
        return {"failed": "manifest", "code": code}
    folds_s, code = _run(cli, plan["folds"])
    if code != 0:
        return {"failed": "folds", "code": code}
    return {"manifest_s": manifest_s, "folds_s": folds_s}


def _round(plan: dict, cli, stamps: list) -> dict:
    round_dir = Path(plan["round_dir"])
    shutil.rmtree(round_dir, ignore_errors=True)
    round_dir.mkdir(parents=True)
    stamps.clear()
    out: dict = {"predict_s": []}
    out["train_s"], code = _run(cli, plan["train"])
    out["steps"] = list(stamps)
    if code != 0:
        return {**out, "failed": "train", "code": code}
    out["evaluate_s"], code = _run(cli, plan["evaluate"])
    if code != 0:
        return {**out, "failed": "evaluate", "code": code}
    for argv in plan["predict"]:
        elapsed, code = _run(cli, argv)
        if code != 0:
            return {**out, "failed": "predict", "code": code}
        out["predict_s"].append(elapsed)
    out["hashes"] = {name: _sha256(round_dir / name) for name in plan["hash_files"]}
    return out


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    start = time.perf_counter()
    import ecgformer.cli as cli

    import_s = time.perf_counter() - start
    package_dir = Path(cli.__file__).resolve().parent.parent
    if package_dir != Path(plan["src"]).resolve():
        raise SystemExit(f"ecgformer imported from {package_dir}, expected {plan['src']}")
    result: dict = {"import_s": import_s}

    tracer = None
    stamps: list = []
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["absent"] = tracer.absent
    else:
        from tracer import replace_everywhere

        autograd = sys.modules["ecgformer.autograd"]
        adam_step = autograd.adam_step

        def stamped_adam_step(params, grads, state, *args, **kwargs):
            out = adam_step(params, grads, state, *args, **kwargs)
            stamps.append((state["t"], time.perf_counter()))
            return out

        replace_everywhere(adam_step, stamped_adam_step)

    if plan["mode"] == "setup" or plan["trace"]:
        result.update(_setup(plan, cli))
        if tracer is not None:
            result["setup_trace"] = tracer.take_counts()
    if plan["mode"] == "pipeline" and "failed" not in result:
        rounds = []
        begin = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.enter("bench.round")
            one = _round(plan, cli, stamps)
            if tracer is not None:
                tracer.exit()
                one["trace"] = tracer.take_counts()
            rounds.append(one)
            if "failed" in one or time.perf_counter() - begin >= plan["seconds"]:
                break
        result["rounds"] = rounds
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if "failed" not in rounds[-1]:
            for argv in plan["check_predict"]:
                _, code = _run(cli, argv)
                if code != 0:
                    result["failed"] = "check_predict"
                    break
        if tracer is not None:
            tracer.write_spans(plan["spans"])
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
