"""Byte record of a checkout: the README toy chain and the paper-size chain, hashed file by file.

    python3 tools/byte_record.py CHECKOUT [--work DIR]

Each chain runs ``python3 -m ecgformer.cli`` from CHECKOUT/src in a new empty
directory, with relative paths and ``OPENBLAS_NUM_THREADS=1``, keeping each
command's stdout as ``out_<command>[_<record>].txt``:

- toy: ``synth --records 64 --seed 1``, ``manifest``, ``folds --k 4 --seed 7``,
  ``train --fold all`` with README's toy INI (``max_steps = 500``) and
  ``precision`` set, ``evaluate``, then ``predict`` and
  ``attention --format svg --layer -1 --head mean`` on synth00000-00002 with
  ``runs/fold0``; in float64 and in float32, and in float64 with
  ``gelu_exact = true``, ``positional = sinusoidal`` and
  ``dropout_positional = false`` (the exact GELU, a frozen positional table
  and no positional dropout).
- paper: ``synth --records 4 --seed 1``, ``manifest``, ``folds --k 2 --seed 7``,
  the default architecture on twelve leads, ``train --fold -1`` with
  ``batch_size_train = 2``, ``max_steps = 6`` and ``eval_every = 6``,
  ``evaluate``, and ``predict`` on all 4 records.

Each chain runs at ``--threads`` 1 and 2. A chain's listing is the sorted
``<sha256>  <path>`` lines of every file it leaves, stdout included and the
input INI excluded; its listing hash is the first 16 hex digits of the
sha256 of those lines, each ended by a newline. The script prints, per chain
and thread count, the listing hash and file count, then the 16-digit hashes
of its checkpoints, thresholds, reports and probabilities, and writes each
listing beside the chain's directory under the work directory (a new
temporary directory unless ``--work`` names one, named on stderr). Two
checkouts have the same bytes when their stdout is identical. Standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOY_INI = """[preprocess]
window_samples = 192

[model]
d_model = 16
num_layers = 2
num_heads = 2
d_ff = 16
d_deep = 8
d_wide = 4
{model_keys}
[train]
batch_size_train = 8
learning_rate = 0.003
max_steps = 500
lead_subset = two
normal_class = SR
precision = {precision}
"""

TOY_VARIANT = """gelu_exact = true
positional = sinusoidal
dropout_positional = false
"""

PAPER_INI = """[train]
batch_size_train = 2
max_steps = 6
eval_every = 6
lead_subset = twelve
"""

TOY_RECORDS = ["synth00000", "synth00001", "synth00002"]
PAPER_RECORDS = ["synth00000", "synth00001", "synth00002", "synth00003"]
INI_NAME = "chain.ini"


def toy_commands(threads: int) -> list[tuple[str, list[str]]]:
    """(stdout name, arguments) of the README toy chain."""
    t = ["--threads", str(threads)]
    commands = [
        ("synth", ["synth", "--out", "data", "--records", "64", "--seed", "1"]),
        ("manifest", ["manifest", "--data", "data", "--class-map", "data/class_map.csv", "--out", "manifest.csv"]),
        ("folds", ["folds", "--manifest", "manifest.csv", "--k", "4", "--seed", "7", "--out", "folds.csv"]),
        ("train", ["train", "--manifest", "manifest.csv", "--folds", "folds.csv", "--fold", "all",
                   "--weights", "data/weights.csv", "--out", "runs", "--config", INI_NAME, *t]),
        ("evaluate", ["evaluate", "--manifest", "manifest.csv", "--folds", "folds.csv", "--runs", "runs",
                      "--weights", "data/weights.csv", "--out", "report.csv", *t]),
    ]
    for record in TOY_RECORDS:
        commands.append((f"predict_{record}", ["predict", "--record", f"data/{record}.hea", "--run", "runs/fold0",
                                                "--out", f"probs{record[-5:]}.csv"]))
    for record in TOY_RECORDS:
        commands.append((f"attention_{record}", ["attention", "--record", f"data/{record}.hea", "--run", "runs/fold0",
                                                  "--format", "svg", "--layer", "-1", "--head", "mean",
                                                  "--out", "maps"]))
    return commands


def paper_commands(threads: int) -> list[tuple[str, list[str]]]:
    """(stdout name, arguments) of the paper-size chain."""
    t = ["--threads", str(threads)]
    commands = [
        ("synth", ["synth", "--out", "data", "--records", "4", "--seed", "1"]),
        ("manifest", ["manifest", "--data", "data", "--class-map", "data/class_map.csv", "--out", "manifest.csv"]),
        ("folds", ["folds", "--manifest", "manifest.csv", "--k", "2", "--seed", "7", "--out", "folds.csv"]),
        ("train", ["train", "--manifest", "manifest.csv", "--fold", "-1", "--weights", "data/weights.csv",
                   "--out", "run", "--config", INI_NAME, *t]),
        ("evaluate", ["evaluate", "--manifest", "manifest.csv", "--runs", "run", "--weights", "data/weights.csv",
                      "--out", "report.csv", *t]),
    ]
    for record in PAPER_RECORDS:
        commands.append((f"predict_{record}", ["predict", "--record", f"data/{record}.hea", "--run", "run",
                                                "--out", f"probs{record[-5:]}.csv"]))
    return commands


def chains():
    """(name, INI text, commands) of every chain variant."""
    for threads in (1, 2):
        for precision in ("float64", "float32"):
            yield (f"toy-{precision}-threads{threads}", TOY_INI.format(precision=precision, model_keys=""),
                   toy_commands(threads))
        yield f"paper-threads{threads}", PAPER_INI, paper_commands(threads)
        yield (f"toy-exact-sinusoidal-threads{threads}", TOY_INI.format(precision="float64", model_keys=TOY_VARIANT),
               toy_commands(threads))


def short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_chain(checkout: Path, directory: Path, ini: str, commands) -> list[str]:
    """Run one chain in the empty `directory`; its listing lines, sorted."""
    directory.mkdir(parents=True)
    (directory / INI_NAME).write_text(ini)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(checkout / "src")}
    for name, args in commands:
        done = subprocess.run([sys.executable, "-m", "ecgformer.cli", *args], cwd=directory, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if done.returncode != 0:
            sys.exit(f"{directory.name}: {' '.join(args)} exited {done.returncode}:\n{done.stderr.decode()}")
        (directory / f"out_{name}.txt").write_bytes(done.stdout)
    lines = []
    for path in sorted(directory.rglob("*")):
        relative = path.relative_to(directory).as_posix()
        if path.is_file() and relative != INI_NAME:
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {relative}")
    return sorted(lines)


def named(lines: list[str]) -> list[tuple[str, str]]:
    """(path, 16-digit hash) of the checkpoints, thresholds, reports and probabilities of a listing."""
    out = []
    for line in lines:
        digest, path = line.split("  ", 1)
        name = path.rsplit("/", 1)[-1]
        if name in ("checkpoint.wft1", "thresholds.csv", "report.csv", "cv_report.csv") or (
                name.startswith("probs") and name.endswith(".csv")):
            out.append((path, digest[:16]))
    return sorted(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout to run (holds src/ecgformer)")
    parser.add_argument("--work", type=Path, help="directory for the chains' files (must not exist)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "ecgformer" / "cli.py").is_file():
        parser.error(f"{checkout} holds no src/ecgformer/cli.py")
    work = args.work.resolve() if args.work else Path(tempfile.mkdtemp(prefix="byte_record_"))
    if args.work:
        work.mkdir(parents=True, exist_ok=False)
    for name, ini, commands in chains():
        lines = run_chain(checkout, work / name, ini, commands)
        listing = "".join(line + "\n" for line in lines)
        (work / f"{name}.sha256").write_text(listing)
        print(f"{name}: listing {short_hash(listing.encode())} ({len(lines)} files)")
        for path, digest in named(lines):
            print(f"  {path} {digest}")
        sys.stdout.flush()
    print(f"listings and files under {work}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
