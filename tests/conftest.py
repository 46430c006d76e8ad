import os
import re
import sys
from pathlib import Path

# Allow `from oracles import ...` in test modules.
sys.path.insert(0, str(Path(__file__).parent))
# pytest puts src/ on this process's path (pyproject.toml); child processes
# that run `python -m ecgformer.cli` need it on theirs.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))

_CRITERION = re.compile(r"test_(a\d+)_(\w+)")


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per acceptance criterion, regardless of verbosity."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    criterion = match.group(1).upper()
    label = match.group(2).replace("_", " ")
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[{status}] {criterion}: {label} ({report.duration:.1f}s)", flush=True)
