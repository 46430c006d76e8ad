"""Training loop, per-class threshold fitting, and cross-validation driver.

Each training step draws the next batch from a seeded epoch shuffle, cuts a
fresh random window per (epoch, record), runs the batch as one graph (or, when
that graph would outgrow `model.GRAPH_BUDGET`, one graph per sample), averages
the per-sample BCE gradients summed in slot order, and applies one Adam
update. The validation partition never contributes a gradient; it selects
the best checkpoint and fits the per-class probability thresholds.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import dsp, features, metrics, model, seeding
from .errors import (ArgumentRangeError, ConfigError, EmptyDatasetError, NumericalError, RecordFormatError,
                     ShapeError)
from .record_io import DatasetManifest, EcgRecord, LeadSubset, lead_subset, parse_record, read_csv
from .stratify import FoldAssignment


@dataclass
class TrainConfig:
    batch_size_train: int = 128
    learning_rate: float = 1e-4
    max_steps: int = 500
    seed: int = 0
    eval_every: int = 100
    lead_subset: str = "twelve"
    custom_leads: list[str] = field(default_factory=list)
    normal_class: str = ""
    standardize_wide: bool = False
    precision: str = "float64"
    threads: int = 1

    def __post_init__(self):
        if self.batch_size_train < 1:
            raise ConfigError("batch_size_train must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.max_steps < 1 or self.eval_every < 1:
            raise ConfigError(f"max_steps and eval_every must be >= 1, got {self.max_steps} and {self.eval_every}")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(f"precision must be float64|float32, got {self.precision!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    def subset(self) -> LeadSubset:
        return lead_subset(self.lead_subset, self.custom_leads)


@dataclass
class ThresholdVector:
    values: np.ndarray
    degenerate_classes: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any((self.values <= 0.0) | (self.values >= 1.0)):
            raise ShapeError("thresholds must lie strictly inside (0, 1)")


def apply_thresholds(probabilities: np.ndarray, thresholds: ThresholdVector) -> np.ndarray:
    return (np.asarray(probabilities) >= thresholds.values).astype(np.int64)


THRESHOLD_GRID = np.round(np.arange(0.02, 0.985, 0.02), 2)  # 0.02 .. 0.98


def fit_thresholds(
    probabilities: np.ndarray,
    labels: np.ndarray,
    weights: metrics.WeightMatrix,
) -> ThresholdVector:
    """Coordinate-ascent grid search of per-class thresholds.

    Starts from 0.5 everywhere and cycles the classes twice; metric ties pick
    the threshold closest to 0.5 (then the smaller one). Classes with no
    positive labels keep 0.5 and are reported as degenerate.

    Only column c of the predictions changes while class c is scanned, so each
    record's credit with c off and with c on is computed once and the whole
    grid is scored as one [grid, records] sum. That sum rounds differently
    from `metrics.challenge_metric`, so it only shortlists: every prediction
    column within a bound on both rounding errors of the best one. When more
    than one column is short-listed, they are re-scored by
    `metrics.challenge_scorer`, `metrics.challenge_metric`'s own arithmetic,
    so the chosen thresholds are exactly those of scoring every grid point
    that way.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise ShapeError(f"probabilities {probs.shape} vs labels {labels.shape}")
    if probs.min(initial=0.0) < 0.0 or probs.max(initial=0.0) > 1.0:
        raise ShapeError("probabilities must lie in [0, 1]")
    num_records, num_classes = probs.shape

    w = weights.w
    score, rising = metrics.challenge_scorer(labels, weights)
    truth = labels != 0
    truth_weights = truth @ w  # [records, classes]: sum of w[i, j] over true classes i
    sign = 1.0 if rising else -1.0
    # Rounding bound: the grid sum below and challenge_metric's sum each round
    # fewer than records + classes^2 + 2 * classes + 8 times, on partial sums
    # no larger than `magnitude`; 4x covers both errors twice and the division.
    magnitude = float((truth @ np.abs(w)).sum())
    tolerance = 4.0 * (num_records + num_classes**2 + 2 * num_classes + 8) * np.finfo(np.float64).eps * magnitude

    thresholds = np.full(num_classes, 0.5)
    degenerate = [c for c in range(num_classes) if labels[:, c].sum() == 0]
    preds = (probs >= thresholds).astype(np.int64)
    for _ in range(2):
        for c in range(num_classes):
            if c in degenerate:
                continue
            rest = preds.copy()
            rest[:, c] = 0
            union_off = (truth | (rest != 0)).sum(axis=1)
            credit_off = (truth_weights * rest).sum(axis=1)
            off = credit_off / np.maximum(union_off, 1)
            on = (credit_off + truth_weights[:, c]) / (union_off + ~truth[:, c])
            predicted = probs[:, c][None, :] >= THRESHOLD_GRID[:, None]  # [grid, records]
            fast = sign * np.where(predicted, on, off).sum(axis=1)
            counts = predicted.sum(axis=1)  # nested sets: the count fixes the column
            near = np.unique(counts[~(fast < fast.max() - tolerance)])  # a NaN bound keeps every point
            if len(near) > 1:
                exact = []
                for count in near:
                    rest[:, c] = predicted[np.argmax(counts == count)]
                    exact.append(score(rest))
                near = near[np.array(exact) == max(exact)]
            winners = THRESHOLD_GRID[np.isin(counts, near)]
            thresholds[c] = min(winners, key=lambda t: (abs(t - 0.5), t))
            preds[:, c] = probs[:, c] >= thresholds[c]
    return ThresholdVector(thresholds, degenerate)


def save_thresholds(path, thresholds: ThresholdVector, class_codes: list[str]):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["class_code", "threshold"])
        for code, t in zip(class_codes, thresholds.values):
            out.writerow([code, repr(float(t))])


def load_thresholds(path, class_codes: list[str] | None = None) -> tuple[list[str], ThresholdVector]:
    """Read thresholds.csv strictly: exactly one `class_code,threshold` row per class; returns the codes
    and their thresholds, in `class_codes` order when given (then the file must hold exactly those)."""
    rows = read_csv(path)[1:]
    mapping = {}
    for row in rows:
        code = row[0] if row else ""
        if len(row) != 2:
            raise RecordFormatError(f"{path}: thresholds row for class {code!r} has {len(row)} fields, expected 2")
        if class_codes is not None and code not in class_codes:
            raise RecordFormatError(f"{path}: unknown class {code!r}")
        if code in mapping:
            raise RecordFormatError(f"{path}: class {code!r} appears twice")
        try:
            value = float(row[1])
        except ValueError:
            raise RecordFormatError(f"{path}: threshold {row[1]!r} for class {code!r} is not a number") from None
        if not 0.0 < value < 1.0:
            raise RecordFormatError(f"{path}: threshold {row[1]!r} for class {code!r} is not strictly inside (0, 1)")
        mapping[code] = value
    codes = list(mapping) if class_codes is None else list(class_codes)
    missing = [c for c in codes if c not in mapping]
    if missing:
        raise RecordFormatError(f"{path}: no threshold for class {missing[0]!r}")
    return codes, ThresholdVector(np.array([mapping[c] for c in codes]))


# -- data assembly --------------------------------------------------------------


@dataclass
class PreparedRecord:
    processed: np.ndarray  # resampled + filtered (+ normalized) full recording
    wide: np.ndarray  # already truncated to d_wide (and standardized if enabled)


def _wide_row(values: np.ndarray, d_wide: int, scaler: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The first d_wide wide features, standardized by scaler = (mean, std) when given."""
    if d_wide > features.D_WIDE:
        raise ConfigError(f"d_wide {d_wide} exceeds the {features.D_WIDE} available wide features")
    wide = values[:d_wide].copy()
    return wide if scaler is None else (wide - scaler[0]) / scaler[1]


def _leads_to_decode(subset: LeadSubset, feature_config: features.FeatureConfig):
    """`read_record`'s choice of leads to decode from a file whose leads are
    `names`: the subset's leads it has, once each and in subset order, and the
    feature lead. A file without the configured feature lead falls back to
    its first lead, which then goes first, so that the decoded record falls
    back to the same lead."""

    def choose(names: list[str]) -> list[str]:
        present = [lead for lead in dict.fromkeys(subset.leads) if lead in names]
        feature = features.feature_lead_name(names, feature_config)
        if feature != feature_config.feature_lead:
            present = [feature] + [lead for lead in present if lead != feature]
        return present if feature in present else present + [feature]

    return choose


def _select_leads(record: EcgRecord, subset: LeadSubset) -> EcgRecord:
    """The subset's leads of a decoded record, in subset order: a lead the
    record lacks is an ArgumentRangeError, a lead named twice a
    RecordFormatError."""
    for lead in subset.leads:
        if lead not in record.lead_names:
            raise ArgumentRangeError(f"{record.record_id}: lead {lead!r} not present")
    rows = [record.lead_names.index(lead) for lead in subset.leads]
    if rows == list(range(record.num_leads)):
        return record
    return EcgRecord(record.record_id, record.sampling_rate_hz, record.signal[rows], list(subset.leads),
                     record.age_years, record.sex, set(record.dx_codes))


def read_record(header_path, subset: LeadSubset, feature_config: features.FeatureConfig, d_wide: int,
                scaler: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[EcgRecord, np.ndarray]:
    """What the model reads of a record: its subset's leads (still to be
    preprocessed) and its wide feature row. Only those leads and the feature
    lead are decoded; the errors, and their order, are those of decoding the
    whole record, computing its features and then selecting the subset."""
    record = parse_record(header_path, _leads_to_decode(subset, feature_config))
    wide = _wide_row(features.record_features(record, feature_config).values, d_wide, scaler)
    return _select_leads(record, subset), wide


def prepare_record(header_path, subset: LeadSubset, preprocess_config: dsp.PreprocessConfig,
                   feature_config: features.FeatureConfig, d_wide: int,
                   scaler: tuple[np.ndarray, np.ndarray] | None = None) -> PreparedRecord:
    """`read_record` with the leads through `dsp.process_recording`: what
    training, validation and `evaluate` cut windows from."""
    selected, wide = read_record(header_path, subset, feature_config, d_wide, scaler)
    processed = dsp.process_recording(selected.signal, selected.sampling_rate_hz, preprocess_config)
    return PreparedRecord(processed, wide)


def prepare_records(
    manifest: DatasetManifest,
    indices: np.ndarray,
    subset: LeadSubset,
    preprocess_config: dsp.PreprocessConfig,
    feature_config: features.FeatureConfig,
    d_wide: int,
    threads: int = 1,
    scaler: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[int, PreparedRecord]:
    """`prepare_record` of the given manifest rows, keyed by row (order independent)."""
    rows = [int(i) for i in indices]

    def prepare(i: int) -> PreparedRecord:
        return prepare_record(manifest.entries[i].file_path, subset, preprocess_config, feature_config, d_wide, scaler)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return dict(zip(rows, pool.map(prepare, rows)))
    return {i: prepare(i) for i in rows}


DROPOUT_BLOCK_STEPS = 32  # steps whose dropout generator states are seeded in one pass


class _Streams:
    """The random draws of training, each the stream NumPy gives a fresh generator:

    - the window offset of record `rec` in epoch `epoch`, drawn from
      `np.random.default_rng(seeding.stable_seeds([(seed, 13, epoch, rec)])[0])`;
    - the dropout masks of batch slot `slot` at step `step`, drawn from
      `np.random.default_rng(np.random.SeedSequence([seed, 17, step, slot]))`.

    `seeding` computes their states for a whole epoch and for a block of
    steps at a time, and each draw loads its state into a generator kept for
    the whole run instead of building one.
    """

    def __init__(self, seed: int, batch: int, max_steps: int):
        self.seed, self.batch, self.max_steps = seed, batch, max_steps
        self._window = np.random.default_rng(0)
        self._dropout = [np.random.default_rng(0) for _ in range(batch)]
        self._block_start, self._block = 0, []  # dropout states of steps _block_start, _block_start + 1, ...

    def window_seeds(self, epoch: int, records: list[int]) -> list:
        """One window seed per record of `epoch`, in order, for `window_rng`."""
        return seeding.int_seed_states(seeding.stable_seeds([(self.seed, 13, epoch, rec) for rec in records]))

    def window_rng(self, window_seed) -> np.random.Generator:
        """The generator `dsp.cut_window` draws one record's offset from."""
        return seeding.reseed(self._window, window_seed)

    def dropout_rngs(self, step: int) -> list[np.random.Generator]:
        """The batch's dropout generators at `step`, one per slot; valid until the next call."""
        if not self._block_start <= step < self._block_start + len(self._block):
            steps = range(step, min(step + DROPOUT_BLOCK_STEPS, self.max_steps))
            states = seeding.pcg64_states([(self.seed, 17, s, slot) for s in steps for slot in range(self.batch)])
            self._block_start = step
            self._block = [states[i : i + self.batch] for i in range(0, len(states), self.batch)]
        for generator, state in zip(self._dropout, self._block[step - self._block_start]):
            seeding.reseed(generator, state)
        return self._dropout


def predict_probabilities(
    prepared: list[PreparedRecord],
    params: model.ModelParams,
    model_config: model.ModelConfig,
    preprocess_config: dsp.PreprocessConfig,
) -> np.ndarray:
    """Eval-mode probabilities for each record (deterministic start windows),
    as many records per forward as `model.records_per_forward` allows, on
    constants built once."""
    params = params.no_grad()
    chunk = model.records_per_forward(model_config, len(prepared), params["patch_projection.weight"].data.itemsize)
    rows = []
    for start in range(0, len(prepared), chunk):
        batch = prepared[start : start + chunk]
        windows = [dsp.cut_window(p.processed, preprocess_config) for p in batch]
        wide = np.stack([p.wide for p in batch])
        rows.append(model.forward(windows, wide, params, model_config, mode="eval").probabilities.data)
    return np.concatenate(rows) if rows else np.zeros((0, model_config.d_class))


def batch_gradients(
    windows: list[dsp.ProcessedWindow],
    wide: np.ndarray,
    labels: np.ndarray,
    rngs: list[np.random.Generator],
    params: model.ModelParams,
    model_config: model.ModelConfig,
    into: dict[str, np.ndarray],
) -> list[float]:
    """Add the summed BCE gradients of a minibatch to `into`; returns each sample's loss.

    The whole batch runs as one graph when it fits `model.GRAPH_BUDGET`, else
    one graph per sample. Either way each parameter's gradient is summed over
    the samples in slot order, so the bytes do not depend on the split.
    """
    batch = len(windows)
    itemsize = params["patch_projection.weight"].data.itemsize
    per_graph = batch if model.records_per_forward(model_config, batch, itemsize) == batch else 1
    losses: list[float] = []
    for start in range(0, batch, per_graph):
        part = slice(start, start + per_graph)
        out = model.forward(windows[part], wide[part], params, model_config, mode="train", rng=rngs[part])
        loss = ag.binary_cross_entropy(out.probabilities, labels[part], per_slot=True)
        ag.collect_gradients(loss, params.trainable(), into)
        losses.extend(float(v) for v in loss.data)
        del out, loss  # before the next forward, so one graph is alive at a time
    return losses


# -- the fold trainer ------------------------------------------------------------


@dataclass
class FoldScore:
    """One report row: a fold's challenge metric and per-class AUROC."""

    fold_id: int
    challenge: float
    auroc_by_class: list[float | None]

    @property
    def auroc_macro(self) -> float | None:
        return metrics.macro_auroc(self.auroc_by_class)


@dataclass
class FoldReport(FoldScore):
    """A trained fold's score, plus its loss per step and what it trained and validated on."""

    loss_curve: list[float]
    trained_record_ids: list[str]
    val_record_ids: list[str]
    checkpoint_path: str


def _partition(manifest: DatasetManifest, fold_assignment: FoldAssignment, fold_id: int) -> tuple[np.ndarray, np.ndarray]:
    n = len(manifest.entries)
    if fold_id == -1:
        everything = np.arange(n)
        return everything, everything.copy()
    if not (0 <= fold_id < fold_assignment.k):
        raise ArgumentRangeError(f"fold_id {fold_id} out of range for k={fold_assignment.k}")
    val = fold_assignment.records_in_fold(fold_id)
    train = fold_assignment.records_not_in_fold(fold_id)
    if len(val) == 0 or len(train) == 0:
        raise EmptyDatasetError(f"fold {fold_id} leaves an empty partition (train={len(train)}, val={len(val)})")
    return train, val


def _check_shapes(manifest: DatasetManifest, model_config: model.ModelConfig, train_config: TrainConfig) -> LeadSubset:
    if model_config.d_class != len(manifest.class_list):
        raise ConfigError(f"model d_class {model_config.d_class} vs {len(manifest.class_list)} manifest classes")
    subset = train_config.subset()
    if model_config.num_leads != len(subset.leads):
        raise ConfigError(f"model num_leads {model_config.num_leads} vs lead subset of {len(subset.leads)}")
    return subset


def _train_steps(
    cache: dict[int, PreparedRecord],
    labels: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    model_config: model.ModelConfig,
    preprocess_config: dsp.PreprocessConfig,
    train_config: TrainConfig,
    weights: metrics.WeightMatrix,
    checkpoint_path,
) -> tuple[list[float], set[int]]:
    """Initialise and train the parameters on the `train_idx` rows of `cache`
    and `labels` (the manifest's label matrix), validating on the `val_idx`
    rows, and write the best checkpoint to `checkpoint_path`; returns the
    loss curve and the trained rows.

    The parameters, Adam's moments and the gradient total live only in here,
    in the flat buffers of `ag.adam_init`, so they are released before the
    caller reloads the checkpoint. Every graph of a step adds its gradients
    in place into the zeroed total. Each evaluation that keeps the
    parameters writes them as the checkpoint at once, one tensor cast to
    float32 at a time, so no copy of the model is held until training ends.
    """
    params = model.init_params(model_config, train_config.seed, np.dtype(train_config.precision))
    trainable = params.trainable()
    state = ag.adam_init(trainable)
    grads, grad_total = state["grad"], state["flat"][3]  # the step's gradient total: views and their flat buffer
    constants = params.no_grad()  # after adam_init rebinds the data; Adam then updates those arrays in place
    seed = train_config.seed

    loss_curve: list[float] = []
    trained_rows: set[int] = set()
    best_metric = -math.inf  # the first evaluation writes; max_steps >= 1 and the last step evaluates
    val_prepared, val_labels = [cache[int(i)] for i in val_idx], labels[val_idx]

    def val_metric_at_half() -> float:
        probs = predict_probabilities(val_prepared, constants, model_config, preprocess_config)
        preds = (probs >= 0.5).astype(np.int64)
        try:
            return metrics.challenge_metric(val_labels, preds, weights)
        except metrics.UndefinedScoreError:
            # Degenerate tiny validation sets: fall back to negative BCE.
            p = np.clip(probs, ag.BCE_EPS, 1 - ag.BCE_EPS)
            return float((val_labels * np.log(p) + (1 - val_labels) * np.log1p(-p)).mean())

    batch_size = min(train_config.batch_size_train, len(train_idx))
    streams = _Streams(seed, batch_size, train_config.max_steps)

    def train_step(step: int, batch: list[tuple[int, object]]) -> float:
        """One Adam update from the batch-mean gradient; returns the mean loss."""
        rows = [rec_idx for rec_idx, _ in batch]
        records = [cache[rec_idx] for rec_idx in rows]
        windows = [dsp.cut_window(r.processed, preprocess_config, "random", streams.window_rng(window_seed))
                   for r, (_, window_seed) in zip(records, batch)]
        rngs = streams.dropout_rngs(step)
        wide = np.stack([r.wide for r in records])
        grad_total.fill(0.0)
        scale = 1.0 / len(batch)
        try:
            losses = batch_gradients(windows, wide, labels[rows], rngs, params, model_config, grads)
            np.multiply(grad_total, scale, out=grad_total)  # the batch mean, in place
            loss_sum = 0.0
            for value in losses:  # in slot order; sum() compensates its rounding from Python 3.12 on
                loss_sum += value
            mean_loss = loss_sum * scale
            if not math.isfinite(mean_loss):
                raise NumericalError("the mean training loss is not finite")
            ag.adam_step(trainable, grads, state, lr=train_config.learning_rate)
        except NumericalError as exc:
            raise NumericalError(f"training diverged at step {step}: {exc}") from exc
        return mean_loss

    epoch = -1
    stream: list[tuple[int, object]] = []  # (record index, window seed) of the epoch, drawn from the end
    for step in range(train_config.max_steps):
        batch: list[tuple[int, object]] = []
        while len(batch) < batch_size:
            if not stream:
                epoch += 1
                order = np.random.default_rng(seeding.stable_seeds([(seed, 11, epoch)])[0]).permutation(len(train_idx))
                records = [int(train_idx[j]) for j in order]
                stream = list(zip(records, streams.window_seeds(epoch, records)))
            batch.append(stream.pop())
        loss_curve.append(train_step(step, batch))
        trained_rows.update(rec_idx for rec_idx, _ in batch)

        if (step + 1) % train_config.eval_every == 0 or step + 1 == train_config.max_steps:
            current = val_metric_at_half()
            # Ties go to the later checkpoint (more training at equal metric).
            if current >= best_metric:
                best_metric = current
                ag.save_checkpoint(checkpoint_path, params.tensors)
    return loss_curve, trained_rows


def train_fold(
    manifest: DatasetManifest,
    fold_assignment: FoldAssignment,
    fold_id: int,
    model_config: model.ModelConfig,
    preprocess_config: dsp.PreprocessConfig,
    train_config: TrainConfig,
    weights: metrics.WeightMatrix,
    out_dir,
    feature_config: features.FeatureConfig | None = None,
    prepared: dict[int, PreparedRecord] | None = None,
) -> tuple[model.ModelParams, ThresholdVector, FoldReport]:
    """Train one fold and fit thresholds on its validation partition.

    fold_id == -1 is the overfit/smoke mode: train and validate on all records.
    `prepared` (from `prepare_records`, covering both partitions) skips this
    fold's own preprocessing; it is read, never changed.
    """
    feature_config = feature_config or features.FeatureConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subset = _check_shapes(manifest, model_config, train_config)

    train_idx, val_idx = _partition(manifest, fold_assignment, fold_id)
    val_ids = [manifest.entries[int(i)].record_id for i in val_idx]

    cache = prepared if prepared is not None else prepare_records(
        manifest, np.union1d(train_idx, val_idx), subset, preprocess_config, feature_config, model_config.d_wide,
        train_config.threads)
    scaler = None
    if train_config.standardize_wide:
        scaler = _fit_wide_scaler([cache[int(i)] for i in train_idx])
        # Fold-private copies: the records may be shared with other folds.
        cache = {i: replace(p, wide=_wide_row(p.wide, model_config.d_wide, scaler)) for i, p in cache.items()}

    labels = manifest.label_matrix()
    # The steps write the best checkpoint to a file beside the directory's
    # own checkpoint, and the thresholds are fitted on what that file holds.
    # Only then does the run replace the directory's files; a run that fails
    # before removes the file and leaves the directory as it was.
    checkpoint_path = out_dir / "checkpoint.wft1"
    kept_path = out_dir / "checkpoint.wft1.tmp"
    try:
        loss_curve, trained_rows = _train_steps(
            cache, labels, train_idx, val_idx, model_config, preprocess_config, train_config, weights, kept_path,
        )
        # Report everything from the checkpoint actually written to disk, so a
        # later load + evaluate reproduces these numbers bitwise.
        final_params = model.params_from_arrays(ag.load_checkpoint(kept_path), model_config)
        val_probs = predict_probabilities([cache[int(i)] for i in val_idx], final_params, model_config,
                                          preprocess_config)
        val_labels = labels[val_idx]
        thresholds = fit_thresholds(val_probs, val_labels, weights)
        challenge = metrics.challenge_metric(val_labels, apply_thresholds(val_probs, thresholds), weights)
        auroc_by_class = metrics.per_class_auroc(val_probs, val_labels)
    except BaseException:
        kept_path.unlink(missing_ok=True)
        raise
    kept_path.replace(checkpoint_path)
    save_thresholds(out_dir / "thresholds.csv", thresholds, manifest.class_list)
    scaler_path = out_dir / "wide_scaler.csv"
    if scaler is None:
        scaler_path.unlink(missing_ok=True)  # inference would apply a scaler this run never used
    else:
        _save_wide_scaler(scaler_path, scaler, model_config.d_wide)

    report = FoldReport(
        fold_id=fold_id,
        challenge=challenge,
        auroc_by_class=auroc_by_class,
        loss_curve=loss_curve,
        trained_record_ids=sorted(manifest.entries[i].record_id for i in trained_rows),
        val_record_ids=val_ids,
        checkpoint_path=str(checkpoint_path),
    )
    return final_params, thresholds, report


def _fit_wide_scaler(prepared: list[PreparedRecord]) -> tuple[np.ndarray, np.ndarray]:
    stack = np.stack([p.wide for p in prepared])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)
    std[std < 1e-8] = 1.0
    return mean, std


def _save_wide_scaler(path, scaler: tuple[np.ndarray, np.ndarray], d_wide: int):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["feature", "mean", "std"])
        for i in range(d_wide):
            out.writerow([features.FEATURE_NAMES[i], repr(float(scaler[0][i])), repr(float(scaler[1][i]))])


def load_wide_scaler(path, d_wide: int) -> tuple[np.ndarray, np.ndarray]:
    """Read wide_scaler.csv strictly: one `feature,mean,std` row per wide feature, in feature order."""
    rows = read_csv(path)[1:]
    if d_wide > features.D_WIDE:
        raise ConfigError(f"d_wide {d_wide} exceeds the {features.D_WIDE} available wide features")
    if len(rows) > d_wide:
        extra = rows[d_wide][0] if rows[d_wide] else ""
        raise RecordFormatError(f"{path}: extra scaler row for feature {extra!r} beyond the {d_wide} wide features")
    mean = np.empty(d_wide)
    std = np.empty(d_wide)
    for i, row in enumerate(rows):
        name = features.FEATURE_NAMES[i]
        if len(row) != 3:
            raise RecordFormatError(f"{path}: scaler row for feature {name!r} has {len(row)} fields, expected 3")
        if row[0] != name:
            raise RecordFormatError(f"{path}: scaler row {i + 1} names feature {row[0]!r}, expected {name!r}")
        try:
            mean[i], std[i] = float(row[1]), float(row[2])
        except ValueError:
            raise RecordFormatError(f"{path}: scaler values for feature {name!r} are not numbers") from None
        if not math.isfinite(mean[i]):
            raise RecordFormatError(f"{path}: scaler mean {row[1]!r} for feature {name!r} is not finite")
        if not (math.isfinite(std[i]) and std[i] > 0.0):
            raise RecordFormatError(f"{path}: scaler std {row[2]!r} for feature {name!r} is not finite and positive")
    if len(rows) < d_wide:
        raise RecordFormatError(f"{path}: no scaler row for feature {features.FEATURE_NAMES[len(rows)]!r}")
    return mean, std


# -- cross validation -------------------------------------------------------------


@dataclass
class CVReport:
    fold_reports: list[FoldScore]
    class_codes: list[str]

    @property
    def mean_challenge(self) -> float:
        return float(np.mean([r.challenge for r in self.fold_reports]))

    @property
    def sd_challenge(self) -> float:
        vals = [r.challenge for r in self.fold_reports]
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0


def run_cv(
    manifest: DatasetManifest,
    fold_assignment: FoldAssignment,
    model_config: model.ModelConfig,
    preprocess_config: dsp.PreprocessConfig,
    train_config: TrainConfig,
    weights: metrics.WeightMatrix,
    out_root,
    feature_config: features.FeatureConfig | None = None,
) -> CVReport:
    """Train every fold; per-fold artifacts land in out_root/fold<id>/, and
    the report's rows are the folds' FoldReports.

    Every manifest row is parsed, filtered and featurized once, up front, and
    the same records serve every fold.
    """
    out_root = Path(out_root)
    subset = _check_shapes(manifest, model_config, train_config)
    prepared = prepare_records(
        manifest, np.arange(len(manifest.entries)), subset, preprocess_config,
        feature_config or features.FeatureConfig(), model_config.d_wide, train_config.threads,
    )
    reports = []
    for fold_id in range(fold_assignment.k):
        _, _, report = train_fold(
            manifest, fold_assignment, fold_id, model_config, preprocess_config,
            train_config, weights, out_root / f"fold{fold_id}", feature_config, prepared,
        )
        reports.append(report)
    cv = CVReport(reports, list(manifest.class_list))
    save_cv_report(out_root / "cv_report.csv", cv)
    return cv


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def save_cv_report(path, cv: CVReport):
    """Per-fold rows plus one mean row: fold, challenge, macro AUROC, per-class AUROC."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["fold", "challenge_metric", "auroc_macro"] + [f"auroc_{c}" for c in cv.class_codes])
        for r in cv.fold_reports:
            out.writerow([r.fold_id, _fmt(r.challenge), _fmt(r.auroc_macro)] + [_fmt(a) for a in r.auroc_by_class])
        per_class_means = []
        for c in range(len(cv.class_codes)):
            defined = [r.auroc_by_class[c] for r in cv.fold_reports if r.auroc_by_class[c] is not None]
            per_class_means.append(float(np.mean(defined)) if defined else None)
        macro = [r.auroc_macro for r in cv.fold_reports if r.auroc_macro is not None]
        out.writerow(
            ["mean", _fmt(cv.mean_challenge), _fmt(float(np.mean(macro)) if macro else None)]
            + [_fmt(m) for m in per_class_means]
        )
