"""Batch command-line surface: synth, manifest, folds, train, evaluate, predict, attention.

Every subcommand is deterministic given its config and seeds, exits 0 on
success, and on failure prints exactly one machine-parseable line to stderr
(``ERROR <kind>: message``) with a distinct exit code per error family.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import attention_viz, autograd, dsp, metrics, model, record_io, stratify, synth, train
from .errors import (ArgumentRangeError, ConfigError, EcgFormerError, MissingFileError, RecordFormatError,
                     ShapeError)
from .runconfig import RunConfig


def _require(path, kind: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingFileError(f"{kind} not found: {p}")
    return p


def _load_config(args) -> RunConfig:
    path = getattr(args, "config", None)
    return RunConfig.load(_require(path, "config file") if path else None, getattr(args, "set", None) or [])


# -- subcommand implementations ------------------------------------------------


def cmd_synth(args) -> int:
    paths = synth.generate_corpus(args.out, args.records, args.seed, args.leads)
    print(f"wrote {len(paths)} records, class_map.csv and weights.csv to {args.out}")
    return 0


def cmd_manifest(args) -> int:
    config = _load_config(args)
    class_map = record_io.load_class_map(_require(args.class_map, "class map"))
    manifest = record_io.build_manifest(
        _require(args.data, "data directory"), class_map, config["train"]["unlabeled_policy"]
    )
    record_io.save_manifest(args.out, manifest)
    print(f"manifest: {len(manifest.entries)} records, {len(manifest.class_list)} classes, "
          f"{len(manifest.unmapped)} unmapped codes -> {args.out}")
    return 0


def cmd_folds(args) -> int:
    manifest = record_io.load_manifest(_require(args.manifest, "manifest"))
    assignment = stratify.stratified_folds(manifest.label_matrix(), k=args.k, seed=args.seed)
    stratify.save_folds(args.out, manifest.record_ids(), assignment)
    print(f"assigned {len(manifest.entries)} records to {args.k} folds -> {args.out}")
    return 0


def _load_weights(args, train_config: train.TrainConfig, manifest: record_io.DatasetManifest) -> metrics.WeightMatrix:
    """The reward matrix, with `[train] normal_class` (default: the manifest's first class) as the normal class."""
    normal = train_config.normal_class or manifest.class_list[0]
    return metrics.load_weight_matrix(_require(args.weights, "weight matrix"), normal)


def _train_setup(args):
    config = _load_config(args)
    manifest = record_io.load_manifest(_require(args.manifest, "manifest"))
    train_config = config.train_config(args.threads)
    subset = train_config.subset()
    model_config = config.model_config(num_leads=len(subset.leads), d_class=len(manifest.class_list))
    return config, manifest, train_config, model_config, _load_weights(args, train_config, manifest)


def _write_run_sidecars(out_dir: Path, config: RunConfig):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_used.ini").write_text(config.to_ini_text())


def cmd_train(args) -> int:
    config, manifest, train_config, model_config, weights = _train_setup(args)
    preprocess_config = config.preprocess_config()
    feature_config = config.feature_config()
    out_dir = Path(args.out)

    if args.fold == "all":
        if args.folds is None:
            raise ArgumentRangeError("--folds is required when training per-fold")
        assignment = stratify.load_folds(_require(args.folds, "fold file"), manifest.record_ids())
        cv = train.run_cv(manifest, assignment, model_config, preprocess_config, train_config, weights, out_dir,
                          feature_config)
        _write_run_sidecars(out_dir, config)
        for report in cv.fold_reports:
            # Fold directories are self-describing so predict/attention can
            # point straight at them.
            _write_run_sidecars(out_dir / f"fold{report.fold_id}", config)
            print(f"fold {report.fold_id}: challenge={report.challenge!r} steps={len(report.loss_curve)}")
        print(f"mean challenge: {cv.mean_challenge!r} +- {cv.sd_challenge!r}")
        return 0

    fold_id = int(args.fold)
    if fold_id == -1:
        assignment = stratify.FoldAssignment(np.zeros(len(manifest.entries), dtype=np.int64), 1)
    else:
        if args.folds is None:
            raise ArgumentRangeError("--folds is required when training per-fold")
        assignment = stratify.load_folds(_require(args.folds, "fold file"), manifest.record_ids())
    _, _, report = train.train_fold(
        manifest, assignment, fold_id, model_config, preprocess_config, train_config,
        weights, out_dir, feature_config,
    )
    _write_run_sidecars(out_dir, config)
    print(f"fold {fold_id}: challenge={report.challenge!r} final_loss={report.loss_curve[-1]!r} "
          f"steps={len(report.loss_curve)} checkpoint={report.checkpoint_path}")
    return 0


def _run_config(run_dir: Path, args) -> RunConfig:
    return RunConfig.load(_require(run_dir / "config_used.ini", "run configuration"), getattr(args, "set", None) or [])


@dataclass
class RunArtifacts:
    """A trained run directory as inference reads it: every file read once, the
    checkpoint loaded as float64 parameters whatever precision trained it."""

    config: RunConfig
    subset: record_io.LeadSubset
    model_config: model.ModelConfig
    params: model.ModelParams
    class_codes: list[str]
    thresholds: train.ThresholdVector
    scaler: tuple[np.ndarray, np.ndarray] | None

    @classmethod
    def load(cls, run_dir: Path, config: RunConfig, class_codes: list[str] | None = None) -> "RunArtifacts":
        """Load `run_dir` under `config`; with `class_codes`, thresholds.csv must hold exactly those classes.

        The model is built as training built it, from `config`, the lead
        subset and thresholds.csv's classes, so a checkpoint of other shapes
        is a ShapeError. wide_scaler.csv must be there exactly when `config`
        has standardize_wide = true."""
        train_config = config.train_config()
        subset = train_config.subset()
        thresholds_path = _require(run_dir / "thresholds.csv", "thresholds file")
        codes, thresholds = train.load_thresholds(thresholds_path, class_codes)
        model_config = config.model_config(num_leads=len(subset.leads), d_class=len(codes))
        checkpoint = _require(run_dir / "checkpoint.wft1", "checkpoint")
        arrays = autograd.load_checkpoint(checkpoint)
        try:
            params = model.params_from_arrays(arrays, model_config)
        except RecordFormatError as exc:  # a non-finite weight: name the file too
            raise RecordFormatError(f"{checkpoint}: {exc}") from None
        except ShapeError as exc:  # name the file, and where the expected shapes came from
            raise ShapeError(f"{checkpoint}: {exc}; the expected shapes follow the {len(codes)} classes of "
                             f"{thresholds_path}, config_used.ini and --set") from None
        scaler_path = run_dir / "wide_scaler.csv"
        scaler = train.load_wide_scaler(scaler_path, model_config.d_wide) if scaler_path.exists() else None
        if scaler is not None and not train_config.standardize_wide:
            raise ConfigError(f"{scaler_path} is present, but the run's config_used.ini and --set "
                              f"say standardize_wide = false")
        if scaler is None and train_config.standardize_wide:
            raise MissingFileError(f"wide scaler not found: {scaler_path}; the run's config_used.ini and --set "
                                   f"say standardize_wide = true")
        return cls(config, subset, model_config, params, codes, thresholds, scaler)


def cmd_evaluate(args) -> int:
    runs = _require(args.runs, "run directory")
    config = _run_config(runs, args)
    manifest = record_io.load_manifest(_require(args.manifest, "manifest"))
    weights = _load_weights(args, config.train_config(), manifest)
    preprocess_config = config.preprocess_config()

    if (runs / "checkpoint.wft1").exists():
        fold_dirs = [(-1, runs)]
        assignment = None
    else:
        if args.folds is None:
            raise ArgumentRangeError("--folds is required to evaluate per-fold runs")
        assignment = stratify.load_folds(_require(args.folds, "fold file"), manifest.record_ids())
        fold_dirs = [(fold, runs / f"fold{fold}") for fold in range(assignment.k)]
        for fold, d in fold_dirs:
            _require(d, f"fold {fold} run directory")

    labels_all = manifest.label_matrix()
    scores = []
    for fold, run_dir in fold_dirs:
        run = RunArtifacts.load(run_dir, config, manifest.class_list)
        indices = np.arange(len(manifest.entries)) if fold == -1 else assignment.records_in_fold(fold)
        prepared = train.prepare_records(manifest, indices, run.subset, preprocess_config, config.feature_config(),
                                         run.model_config.d_wide, args.threads, run.scaler)
        probs = train.predict_probabilities([prepared[int(i)] for i in indices], run.params, run.model_config,
                                            preprocess_config)
        labels = labels_all[indices]
        challenge = metrics.challenge_metric(labels, train.apply_thresholds(probs, run.thresholds), weights)
        scores.append(train.FoldScore(fold, challenge, metrics.per_class_auroc(probs, labels)))
    cv = train.CVReport(scores, list(manifest.class_list))
    train.save_cv_report(args.out, cv)
    for report in cv.fold_reports:
        macro = "" if report.auroc_macro is None else repr(report.auroc_macro)
        print(f"fold {report.fold_id}: challenge={report.challenge!r} auroc_macro={macro}")
    print(f"challenge metric: {cv.mean_challenge!r} +- {cv.sd_challenge!r}")
    print(f"report -> {args.out}")
    return 0


def _run_and_inputs(args) -> tuple[RunArtifacts, str, dsp.ProcessedWindow, np.ndarray]:
    """The run directory, then the record's id, start window (`dsp.preprocess`) and wide row."""
    run_dir = _require(args.run, "run directory")
    run = RunArtifacts.load(run_dir, _run_config(run_dir, args))
    selected, wide = train.read_record(_require(args.record, "record header"), run.subset, run.config.feature_config(),
                                       run.model_config.d_wide, run.scaler)
    window = dsp.preprocess(selected.signal, selected.sampling_rate_hz, run.config.preprocess_config())
    return run, selected.record_id, window, wide


def cmd_predict(args) -> int:
    run, record_id, window, wide = _run_and_inputs(args)
    probs = model.forward([window], wide[None], run.params, run.model_config, mode="eval").probabilities.data[0]
    lines = ["record_id," + ",".join(run.class_codes),
             record_id + "," + ",".join(repr(float(p)) for p in probs)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"probabilities for {record_id} -> {args.out}")
    return 0


def cmd_attention(args) -> int:
    run, record_id, window, wide = _run_and_inputs(args)

    layer = args.layer if args.layer >= 0 else run.model_config.num_layers - 1
    amap = attention_viz.extract_attention(window, wide, run.params, run.model_config, layer, args.head)
    feature_lead = run.config["features"]["feature_lead"]
    trace_row = run.subset.leads.index(feature_lead) if feature_lead in run.subset.leads else 0
    out_path = Path(args.out) / attention_viz.attention_filename(record_id, layer, amap.head_mode, args.format)
    attention_viz.export_heatmap(amap, window.signal[trace_row], out_path, fmt=args.format, region=args.region)
    print(f"attention map -> {out_path}")
    return 0


# -- parser ---------------------------------------------------------------------

THREADS_HELP = ("worker threads for reading and preprocessing records (default 1); forwards run batched in "
                "the calling thread; results are independent of this")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgformer",
        description="Multi-lead ECG multi-label classification with a patch-based waveform transformer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file (see README for the schema)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")

    p = sub.add_parser("synth", help="generate a deterministic synthetic labeled corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--records", type=int, required=True, help="number of records")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--leads", type=int, default=12, help="leads per record (prefix of the standard 12)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("manifest", help="scan a record directory into a labeled manifest")
    p.add_argument("--data", required=True, help="directory of .hea/.dat records")
    p.add_argument("--class-map", required=True, help="CSV code,class_index,class_code")
    p.add_argument("--out", required=True, help="manifest CSV to write")
    common(p)
    p.set_defaults(func=cmd_manifest)

    p = sub.add_parser("folds", help="multi-label stratified fold assignment")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="fold CSV to write")
    p.set_defaults(func=cmd_folds)

    p = sub.add_parser("train", help="train one fold (or all) and fit thresholds")
    p.add_argument("--manifest", required=True)
    p.add_argument("--folds", help="fold CSV (required unless --fold -1)")
    p.add_argument("--fold", default="0", help="fold id, 'all', or -1 for overfit/smoke mode")
    p.add_argument("--weights", required=True, help="reward matrix CSV")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score trained runs and write the per-fold report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--folds", help="fold CSV (required for per-fold runs)")
    p.add_argument("--runs", required=True, help="run directory from `train`")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True, help="report CSV to write")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="probabilities for one record")
    p.add_argument("--record", required=True, help="record header path")
    p.add_argument("--run", required=True, help="run directory with checkpoint")
    p.add_argument("--out", required=True, help="CSV to write")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("attention", help="export an attention heatmap for one record")
    p.add_argument("--record", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--layer", type=int, default=-1, help="encoder layer (-1 = final layer)")
    p.add_argument("--head", default="mean", help="'mean' or a head index")
    p.add_argument("--format", choices=("pgm", "svg", "csv"), default="pgm")
    p.add_argument("--region", choices=("patch", "full"), default="patch")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.set_defaults(func=cmd_attention)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EcgFormerError as exc:
        message = " ".join(str(exc).split())
        print(f"ERROR {type(exc).__name__}: {message}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"ERROR {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
