"""Attention-map extraction and deterministic heatmap export (PGM / SVG / CSV).

Every exported file is byte-deterministic for a fixed input: PGM pixels are
min-max scaled over the selected region, the SVG draws one rect per attention
cell above a polyline of the ECG lead sharing the time axis (one cell per
patch of samples), and the CSV stores raw values at nine significant digits.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as wm
from .dsp import ProcessedWindow
from .errors import ArgumentRangeError, ShapeError


@dataclass
class AttentionMap:
    layer: int
    head_mode: str  # "mean" or "head<k>"
    matrix: np.ndarray  # [(N+1) x (N+1)], rows sum to 1

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        t = self.matrix.shape[0]
        if self.matrix.shape != (t, t):
            raise ShapeError(f"attention matrix must be square, got {self.matrix.shape}")
        if np.any(self.matrix < 0):
            raise ShapeError("attention entries must be non-negative")
        if np.max(np.abs(self.matrix.sum(axis=-1) - 1.0)) > 1e-6:
            raise ShapeError("attention rows must sum to 1")

    @property
    def patch_submatrix(self) -> np.ndarray:
        """Patch-to-patch view, class-token row and column removed."""
        return self.matrix[1:, 1:]

    @property
    def class_row(self) -> np.ndarray:
        """Class-token attention over the patch tokens."""
        return self.matrix[0, 1:]


def extract_attention(
    window: ProcessedWindow,
    wide: np.ndarray,
    params: wm.ModelParams,
    config: wm.ModelConfig,
    layer: int,
    head_mode: str = "mean",
) -> AttentionMap:
    """One record's eval-mode forward, as a batch of one, returning one layer's softmaxed attention.

    head_mode is "mean" (average over heads) or an integer-like string /
    integer selecting a single head.
    """
    if not (0 <= layer < config.num_layers):
        raise ArgumentRangeError(f"layer {layer} out of range for {config.num_layers} layers")
    head = None
    if head_mode != "mean":
        try:
            head = int(head_mode)
        except ValueError:
            raise ArgumentRangeError(f"--head must be 'mean' or a head index, got {head_mode!r}") from None
        if not (0 <= head < config.num_heads):
            raise ArgumentRangeError(f"head {head} out of range for {config.num_heads} heads")
    out = wm.forward([window], np.asarray(wide)[None], params, config, mode="eval", capture_attention=True)
    per_head = out.attention_maps[layer][0]  # [H, N+1, N+1]
    if head is None:
        return AttentionMap(layer=layer, head_mode="mean", matrix=per_head.mean(axis=0))
    return AttentionMap(layer=layer, head_mode=f"head{head}", matrix=per_head[head])


def _region(amap: AttentionMap, region: str) -> np.ndarray:
    if region == "patch":
        return amap.patch_submatrix
    if region == "full":
        return amap.matrix
    raise ArgumentRangeError(f"region must be patch|full, got {region!r}")


def export_heatmap(
    amap: AttentionMap,
    ecg_lead_trace: np.ndarray,
    out_path,
    fmt: str = "pgm",
    region: str = "patch",
) -> Path:
    """Write the map in the requested format; returns the path written."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "pgm":
        out_path.write_bytes(render_pgm(_region(amap, region)))
    elif fmt == "csv":
        out_path.write_text(render_csv(_region(amap, region)))
    elif fmt == "svg":
        out_path.write_text(render_svg(amap, np.asarray(ecg_lead_trace, dtype=np.float64)))
    else:
        raise ArgumentRangeError(f"format must be pgm|svg|csv, got {fmt!r}")
    return out_path


def render_pgm(values: np.ndarray) -> bytes:
    """8-bit binary PGM, min-max scaled; a constant map renders as all zeros."""
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        pixels = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pixels = np.zeros(values.shape, dtype=np.uint8)
    h, w = values.shape
    return f"P5\n{w} {h}\n255\n".encode() + pixels.tobytes(order="C")


def render_csv(values: np.ndarray) -> str:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    for row in values:
        out.writerow([f"{v:.9g}" for v in row])
    return buf.getvalue()


CELL_PX = 6
TRACE_HEIGHT_PX = 120
TRACE_GAP_PX = 12


def render_svg(amap: AttentionMap, trace: np.ndarray) -> str:
    """Patch-attention heatmap above the aligned lead trace.

    The x axis is shared: heatmap column t spans the same horizontal band as
    the trace samples belonging to patch t.
    """
    sub = amap.patch_submatrix
    n = sub.shape[0]
    width = n * CELL_PX
    heat_h = n * CELL_PX
    height = heat_h + TRACE_GAP_PX + TRACE_HEIGHT_PX
    lo, hi = float(sub.min()), float(sub.max())
    span = hi - lo if hi > lo else 1.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">\n',
        '<g id="heatmap">\n',
    ]
    for r in range(n):
        for c in range(n):
            level = int(round((sub[r, c] - lo) / span * 255.0))
            parts.append(
                f'<rect x="{c * CELL_PX}" y="{r * CELL_PX}" width="{CELL_PX}" height="{CELL_PX}" '
                f'fill="rgb({level},{level},{level})"/>\n'
            )
    parts.append("</g>\n")

    samples_per_cell = max(len(trace) / n, 1e-9)
    top = heat_h + TRACE_GAP_PX
    t_lo, t_hi = (float(trace.min()), float(trace.max())) if len(trace) else (0.0, 1.0)
    t_span = t_hi - t_lo if t_hi > t_lo else 1.0
    points = []
    for i, v in enumerate(trace):
        x = i / samples_per_cell * CELL_PX
        y = top + (1.0 - (v - t_lo) / t_span) * TRACE_HEIGHT_PX
        points.append(f"{x:.3f},{y:.3f}")
    parts.append('<g id="trace">\n')
    parts.append(f'<polyline fill="none" stroke="black" stroke-width="1" points="{" ".join(points)}"/>\n')
    parts.append("</g>\n</svg>\n")
    return "".join(parts)


def attention_filename(record_id: str, layer: int, head_mode: str, fmt: str) -> str:
    return f"{record_id}_L{layer}_{head_mode}.{fmt}"
