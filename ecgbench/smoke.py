"""Smoke test of the benchmark itself; runs in well under a minute.

    python3 ecgbench/smoke.py

Run from the root of a checkout. Every workload runs at minimal size
(``run.py --smoke``), untraced and traced; each must pass its output checks
and print exactly the metric names and units that BENCHMARK.json lists. Last,
the runner must refuse, with a non-zero exit and no result line, to run in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path


def run(args: list[str], cwd: Path) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "ecgbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines() + proc.stderr.strip().splitlines()[-5:]


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, lines = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                               "--smoke"], root)
            problems = []
            try:
                result = json.loads(next(line for line in reversed(lines) if line.startswith("{")))
            except (StopIteration, json.JSONDecodeError):
                result = None
                problems.append("no result line")
            if code != 0:
                problems.append(f"exit code {code}")
            if result is not None:
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                    problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                                    f"failed={result.get('failed')}")
                got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    units = sorted(n for n in got if n in expected[trace] and got[n] != expected[trace][n])
                    problems.append(f"metrics differ: missing {missing} extra {extra} wrong units {units}")
            status = "PASS" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            if problems:
                failures += 1
                print("\n".join(lines[-8:]))

    bare = root / ".ecgbench_runs" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], bare)
        refused = code != 0 and not any(line.startswith("{") for line in lines)
        print(f"bare directory refused: {'PASS' if refused else f'FAIL exit {code}'}")
        failures += not refused
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
