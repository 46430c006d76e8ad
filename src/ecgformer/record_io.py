"""On-disk record format: text header plus 16-bit interleaved signal file.

Header layout (one record per header):
    line 1:            record_id num_leads sampling_rate num_samples
    next num_leads:    filename format gain baseline lead_name   (format is 16)
    then comments:     # Age: <int|NaN>
                       # Sex: <Male|Female|Unknown>
                       # Dx: <code>[,<code>...]

The signal file stores int16 little-endian samples interleaved by time:
s0_lead0, s0_lead1, ..., s1_lead0, ... Physical millivolts are recovered as
(adc - baseline) / gain per lead.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArgumentRangeError, EmptyDatasetError, RecordFormatError, TruncationError

ADC_MIN = -32768
ADC_MAX = 32767


def read_text(path) -> str:
    """The file at `path` as UTF-8 text, line ends untranslated; a file that is
    not UTF-8 raises RecordFormatError naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_csv(path) -> list[list[str]]:
    """The rows of the CSV file at `path`, read by `read_text`."""
    return list(csv.reader(io.StringIO(read_text(path), newline="")))


STANDARD_12_LEADS = ["I", "II", "III", "aVR", "aVL", "aVF", "V1", "V2", "V3", "V4", "V5", "V6"]

LEAD_SUBSETS = {
    "twelve": STANDARD_12_LEADS,
    "six": ["I", "II", "III", "aVR", "aVL", "aVF"],
    "four": ["I", "II", "III", "V2"],
    "three": ["I", "II", "V2"],
    "two": ["I", "II"],
}


@dataclass
class EcgRecord:
    record_id: str
    sampling_rate_hz: float
    signal: np.ndarray  # [num_leads x num_samples], millivolts
    lead_names: list[str]
    age_years: float | None = None
    sex: str = "unknown"  # male / female / unknown
    dx_codes: set[str] = field(default_factory=set)

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=np.float64)
        if self.signal.ndim != 2:
            raise RecordFormatError(f"{self.record_id}: signal must be [leads x samples]")
        if self.signal.shape[0] != len(self.lead_names):
            raise RecordFormatError(
                f"{self.record_id}: {self.signal.shape[0]} signal rows vs {len(self.lead_names)} lead names"
            )
        if len(set(self.lead_names)) != len(self.lead_names):
            raise RecordFormatError(f"{self.record_id}: duplicate lead names")
        if self.signal.shape[1] < 1:
            raise RecordFormatError(f"{self.record_id}: empty signal")
        if self.sampling_rate_hz <= 0:
            raise RecordFormatError(f"{self.record_id}: non-positive sampling rate")
        if not np.isfinite(self.signal).all():
            raise RecordFormatError(f"{self.record_id}: non-finite signal values")
        if self.sex not in ("male", "female", "unknown"):
            raise RecordFormatError(f"{self.record_id}: bad sex value {self.sex!r}")

    @property
    def num_leads(self) -> int:
        return self.signal.shape[0]

    @property
    def num_samples(self) -> int:
        return self.signal.shape[1]


@dataclass
class LeadSubset:
    name: str
    leads: list[str]

    def __post_init__(self):
        if not self.leads:
            raise ArgumentRangeError("lead subset must name at least one lead")


def lead_subset(name: str, custom_leads: list[str] | None = None) -> LeadSubset:
    """Build one of the named subsets, or 'custom' from an explicit list."""
    if name == "custom":
        return LeadSubset("custom", list(custom_leads or []))
    if name not in LEAD_SUBSETS:
        raise ArgumentRangeError(f"unknown lead subset {name!r}; choose from {sorted(LEAD_SUBSETS)} or 'custom'")
    return LeadSubset(name, list(LEAD_SUBSETS[name]))


def _parse_header_text(path: Path) -> tuple[str, int, float, int, list[tuple[str, float, float, str]], dict]:
    lines = read_text(path).splitlines()
    if not lines:
        raise RecordFormatError(f"{path}: line 1: empty header")
    head = lines[0].split()
    if len(head) != 4:
        raise RecordFormatError(f"{path}: line 1: expected 'record_id num_leads rate num_samples', got {lines[0]!r}")
    record_id = head[0]
    try:
        num_leads = int(head[1])
        rate = float(head[2])
        num_samples = int(head[3])
    except ValueError as exc:
        raise RecordFormatError(f"{path}: line 1: {exc}") from exc
    if num_leads < 1 or num_samples < 1:
        raise RecordFormatError(f"{path}: line 1: non-positive dimensions")
    if not (math.isfinite(rate) and rate > 0.0):
        raise RecordFormatError(f"{path}: line 1: sampling rate {head[2]!r}, expected a finite positive number")
    if len(lines) < 1 + num_leads:
        raise RecordFormatError(f"{path}: header declares {num_leads} leads but has {len(lines) - 1} more lines")

    leads = []
    for i in range(num_leads):
        lineno = i + 2
        parts = lines[1 + i].split()
        if len(parts) != 5:
            raise RecordFormatError(f"{path}: line {lineno}: expected 'filename format gain baseline lead_name'")
        fname, fmt, gain_s, baseline_s, lead_name = parts
        if fmt != "16":
            raise RecordFormatError(f"{path}: line {lineno}: unsupported format {fmt!r} (only 16)")
        try:
            gain = float(gain_s)
            baseline = float(baseline_s)
        except ValueError as exc:
            raise RecordFormatError(f"{path}: line {lineno}: {exc}") from exc
        if gain == 0:
            raise RecordFormatError(f"{path}: line {lineno}: gain of 0")
        leads.append((fname, gain, baseline, lead_name))

    meta = {"age": None, "sex": "unknown", "dx": set()}
    for j, raw in enumerate(lines[1 + num_leads :]):
        lineno = 2 + num_leads + j
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            raise RecordFormatError(f"{path}: line {lineno}: expected a '#' comment line, got {raw!r}")
        body = line[1:].strip()
        if ":" not in body:
            continue
        key, _, value = body.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "age":
            if value.lower() in ("nan", ""):
                meta["age"] = None
            else:
                try:
                    meta["age"] = float(value)
                except ValueError as exc:
                    raise RecordFormatError(f"{path}: line {lineno}: bad age {value!r}") from exc
        elif key == "sex":
            v = value.lower()
            meta["sex"] = v if v in ("male", "female") else "unknown"
        elif key == "dx":
            meta["dx"] = {c.strip() for c in value.split(",") if c.strip()}
    return record_id, num_leads, rate, num_samples, leads, meta


def _read_checked(header_path: Path) -> tuple[str, float, list[str], np.ndarray, np.ndarray, np.ndarray, dict]:
    """One record as stored, with every check a full decode makes of it, decoding nothing.

    Returns the record id, the rate, the lead names, the per-lead gains and
    baselines, the int16 samples as a [samples x leads] view of the file, and
    the header comments. The checks cover every lead of the file: the header,
    one shared signal file, its size, duplicate lead names, and that no sample
    decodes to NaN or Inf.
    """
    record_id, num_leads, rate, num_samples, leads, meta = _parse_header_text(header_path)
    signal_names = {fname for fname, _, _, _ in leads}
    if len(signal_names) != 1:
        raise RecordFormatError(f"{header_path}: all leads must share one signal file, got {sorted(signal_names)}")
    sig_path = header_path.parent / leads[0][0]
    blob = sig_path.read_bytes()
    if len(blob) != 2 * num_samples * num_leads:
        raise TruncationError(
            f"{sig_path}: expected {num_samples * num_leads} samples ({num_samples} x {num_leads}, "
            f"{2 * num_samples * num_leads} bytes), found {len(blob)} bytes"
        )
    names = [name for _, _, _, name in leads]
    if len(set(names)) != len(names):
        raise RecordFormatError(f"{record_id}: duplicate lead names")
    adc = np.frombuffer(blob, dtype="<i2").reshape(num_samples, num_leads)
    gains = np.array([gain for _, gain, _, _ in leads])
    baselines = np.array([baseline for _, _, baseline, _ in leads])
    if not _decodes_finite(adc, gains, baselines):
        raise RecordFormatError(f"{record_id}: non-finite signal values")
    return record_id, rate, names, gains, baselines, adc, meta


def _decodes_finite(adc: np.ndarray, gains: np.ndarray, baselines: np.ndarray) -> bool:
    """Whether every sample decodes to a finite value, decided without decoding.

    (x - baseline) / gain is monotone in x, rounding included, so a lead
    decodes finite everywhere exactly when it does at its smallest and largest
    sample. The buffer's extremes bound every lead's own; a lead's own column
    is read only when they fail it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.array([[adc.min()], [adc.max()]], dtype=np.float64)
        for lead in np.flatnonzero(~np.isfinite((ends - baselines) / gains).all(axis=0)):
            column = adc[:, lead]
            own = np.array([column.min(), column.max()], dtype=np.float64)
            if not np.isfinite((own - baselines[lead]) / gains[lead]).all():
                return False
    return True


def _decode_leads(adc: np.ndarray, columns: list[int], gains: np.ndarray, baselines: np.ndarray) -> np.ndarray:
    """Columns `columns` of the int16 samples [samples x leads] in millivolts,
    (adc - baseline) / gain per lead, as one C-contiguous row per column."""
    signal = np.array(adc[:, columns].T, dtype=np.float64, order="C")
    signal -= baselines[columns, None]
    signal /= gains[columns, None]
    return signal


def parse_record(header_path, leads=None) -> EcgRecord:
    """Read one record (header + signal file) into physical units.

    `leads` picks the leads to decode, in order: None for every lead in file
    order, a list of lead names, or a function that maps the file's lead names
    to such a list. A name the file lacks is an ArgumentRangeError and a name
    given twice a RecordFormatError. Whichever leads are decoded, every check
    covers every lead of the file (`_read_checked`).
    """
    header_path = Path(header_path)
    record_id, rate, names, gains, baselines, adc, meta = _read_checked(header_path)
    wanted = names if leads is None else list(leads(names) if callable(leads) else leads)
    for lead in wanted:
        if lead not in names:
            raise ArgumentRangeError(f"{record_id}: lead {lead!r} not present (has {names})")
    return EcgRecord(
        record_id=record_id,
        sampling_rate_hz=rate,
        signal=_decode_leads(adc, [names.index(lead) for lead in wanted], gains, baselines),
        lead_names=list(wanted),
        age_years=meta["age"],
        sex=meta["sex"],
        dx_codes=meta["dx"],
    )


def write_record(record: EcgRecord, out_dir, gain: float = 1000.0, baseline: float = 0.0) -> tuple[Path, Path, int]:
    """Write header + int16 signal file; returns (header, signal, saturation count).

    Samples whose scaled value leaves the 16-bit range are clipped and counted.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header_path = out_dir / f"{record.record_id}.hea"
    sig_name = f"{record.record_id}.dat"

    scaled = np.rint(record.signal * gain + baseline)
    saturated = int(np.count_nonzero((scaled < ADC_MIN) | (scaled > ADC_MAX)))
    adc = np.clip(scaled, ADC_MIN, ADC_MAX).astype(np.int16)

    lines = [f"{record.record_id} {record.num_leads} {_fmt_rate(record.sampling_rate_hz)} {record.num_samples}"]
    for lead in record.lead_names:
        lines.append(f"{sig_name} 16 {_fmt_rate(gain)} {_fmt_rate(baseline)} {lead}")
    age = "NaN" if record.age_years is None else _fmt_rate(record.age_years)
    lines.append(f"# Age: {age}")
    lines.append(f"# Sex: {record.sex.capitalize()}")
    lines.append(f"# Dx: {','.join(sorted(record.dx_codes))}")
    header_path.write_text("\n".join(lines) + "\n")

    sig_path = out_dir / sig_name
    sig_path.write_bytes(adc.T.astype("<i2").tobytes(order="C"))
    return header_path, sig_path, saturated


def _fmt_rate(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


@dataclass
class ClassMap:
    """Maps raw diagnosis codes onto the ordered class list (with collapsing)."""

    code_to_index: dict[str, int]
    class_list: list[str]

    def map_codes(self, codes: set[str]) -> tuple[set[str], set[str]]:
        """Split codes into mapped class codes and unmapped originals."""
        mapped, unmapped = set(), set()
        for code in codes:
            if code in self.code_to_index:
                mapped.add(self.class_list[self.code_to_index[code]])
            else:
                unmapped.add(code)
        return mapped, unmapped


def load_class_map(path) -> ClassMap:
    """Read the class map CSV: code,class_index,class_code."""
    path = Path(path)
    code_to_index: dict[str, int] = {}
    index_to_code: dict[int, str] = {}
    for lineno, row in enumerate(read_csv(path), start=1):
        if not row or row[0].startswith("#"):
            continue
        if lineno == 1 and row[0].strip().lower() == "code":
            continue
        if len(row) != 3:
            raise RecordFormatError(f"{path}: line {lineno}: expected 'code,class_index,class_code'")
        code, idx_s, class_code = (c.strip() for c in row)
        try:
            idx = int(idx_s)
        except ValueError as exc:
            raise RecordFormatError(f"{path}: line {lineno}: bad class index {idx_s!r}") from exc
        if code in code_to_index:
            raise RecordFormatError(f"{path}: line {lineno}: duplicate code {code!r}")
        if idx in index_to_code and index_to_code[idx] != class_code:
            raise RecordFormatError(f"{path}: line {lineno}: class index {idx} maps to two class codes")
        code_to_index[code] = idx
        index_to_code[idx] = class_code
    if not code_to_index:
        raise RecordFormatError(f"{path}: empty class map")
    indices = sorted(index_to_code)
    if indices != list(range(len(indices))):
        raise RecordFormatError(f"{path}: class indices must be 0..{len(indices) - 1}, got {indices}")
    return ClassMap(code_to_index, [index_to_code[i] for i in indices])


@dataclass
class ManifestEntry:
    record_id: str
    file_path: str
    dx_codes: set[str]  # mapped class codes
    num_samples: int
    sampling_rate_hz: float


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    class_list: list[str]
    unmapped: list[tuple[str, str]] = field(default_factory=list)  # (record_id, code)

    def label_matrix(self) -> np.ndarray:
        mat = np.zeros((len(self.entries), len(self.class_list)), dtype=np.int64)
        index = {c: i for i, c in enumerate(self.class_list)}
        for r, entry in enumerate(self.entries):
            for code in entry.dx_codes:
                mat[r, index[code]] = 1
        return mat

    def record_ids(self) -> list[str]:
        return [e.record_id for e in self.entries]


def build_manifest(root_dir, class_map: ClassMap, unlabeled_policy: str = "include") -> DatasetManifest:
    """Scan a directory of records and assemble the labeled manifest.

    Entries come back sorted by record_id. Codes outside the class map are
    kept in the unmapped side list. unlabeled_policy controls records whose
    mapped label set is empty: 'include' keeps them with an all-zero row,
    'exclude' drops them. Every record gets `parse_record`'s checks, and no
    signal is decoded.
    """
    if unlabeled_policy not in ("include", "exclude"):
        raise ArgumentRangeError(f"unlabeled_policy must be include|exclude, got {unlabeled_policy!r}")
    root = Path(root_dir)
    headers = sorted(root.glob("*.hea"))
    if not headers:
        raise EmptyDatasetError(f"{root}: no record headers found")
    entries, unmapped, seen = [], [], set()
    for header in headers:
        record_id, rate, _, _, _, adc, meta = _read_checked(header)
        if record_id in seen:
            raise RecordFormatError(f"duplicate record_id {record_id!r}")
        seen.add(record_id)
        mapped, extra = class_map.map_codes(meta["dx"])
        unmapped.extend((record_id, code) for code in sorted(extra))
        if not mapped and unlabeled_policy == "exclude":
            continue
        entries.append(
            ManifestEntry(
                record_id=record_id,
                file_path=str(header),
                dx_codes=mapped,
                num_samples=adc.shape[0],
                sampling_rate_hz=rate,
            )
        )
    if not entries:
        raise EmptyDatasetError(f"{root}: no records left after applying unlabeled_policy={unlabeled_policy}")
    entries.sort(key=lambda e: e.record_id)
    return DatasetManifest(entries=entries, class_list=list(class_map.class_list), unmapped=sorted(unmapped))


def save_manifest(path, manifest: DatasetManifest):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["record_id", "file_path", "num_samples", "sampling_rate_hz", "dx_codes"])
        for e in manifest.entries:
            out.writerow([e.record_id, e.file_path, e.num_samples, _fmt_rate(e.sampling_rate_hz), ";".join(sorted(e.dx_codes))])
        out.writerow(["#classes", ";".join(manifest.class_list), "", "", ""])
        for record_id, code in manifest.unmapped:
            out.writerow(["#unmapped", record_id, code, "", ""])


def load_manifest(path) -> DatasetManifest:
    """Read a manifest CSV strictly: a malformed row is a `RecordFormatError` naming the line and record."""
    entries, class_list, unmapped = [], None, []
    for lineno, row in list(enumerate(read_csv(path), start=1))[1:]:
        where = f"{path}: line {lineno}"
        kind = row[0] if row else ""
        if kind == "#classes":
            if len(row) < 2:
                raise RecordFormatError(f"{where}: #classes row has no class list")
            class_list = row[1].split(";")
        elif kind == "#unmapped":
            if len(row) < 3:
                raise RecordFormatError(f"{where}: #unmapped row has {len(row)} fields, expected 'record_id,code'")
            unmapped.append((row[1], row[2]))
        else:
            entries.append((where, _manifest_entry(row, where)))
    if class_list is None:
        raise RecordFormatError(f"{path}: manifest has no #classes row")
    if not entries:
        raise EmptyDatasetError(f"{path}: manifest lists no records")
    seen = set()
    for where, entry in entries:
        if entry.record_id in seen:
            raise RecordFormatError(f"{where}: record {entry.record_id!r} appears twice")
        seen.add(entry.record_id)
        extra = sorted(entry.dx_codes.difference(class_list))
        if extra:
            raise RecordFormatError(f"{where}: record {entry.record_id!r} has code {extra[0]!r} outside the #classes row")
    return DatasetManifest(entries=[e for _, e in entries], class_list=class_list, unmapped=unmapped)


def _manifest_entry(row: list[str], where: str) -> ManifestEntry:
    record_id = row[0] if row else ""
    if len(row) != 5:
        raise RecordFormatError(f"{where}: record {record_id!r} has {len(row)} fields, expected 5 "
                                "(record_id,file_path,num_samples,sampling_rate_hz,dx_codes)")
    try:
        num_samples = int(row[2])
    except ValueError:
        num_samples = 0
    if num_samples < 1:
        raise RecordFormatError(f"{where}: record {record_id!r} has num_samples {row[2]!r}, expected a positive integer")
    try:
        rate = float(row[3])
    except ValueError:
        rate = math.nan
    if not (math.isfinite(rate) and rate > 0.0):
        raise RecordFormatError(f"{where}: record {record_id!r} has sampling rate {row[3]!r}, expected a positive number")
    return ManifestEntry(
        record_id=record_id,
        file_path=row[1],
        dx_codes=set(filter(None, row[4].split(";"))),
        num_samples=num_samples,
        sampling_rate_hz=rate,
    )
