"""Minimal dependency-free SVG emission for CLI plots.

Line/scatter plots and histograms with optional overlays; enough to mirror
the CSV outputs visually, nothing more.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .files import write_text

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 20, 46
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _padded(lo: float, hi: float) -> tuple[float, float]:
    """lo and hi widened by 5 % of their span; a zero or subnormal span,
    too narrow for the tick arithmetic, by 0.05."""
    span = hi - lo
    if span < sys.float_info.min:
        span = 1.0
    return lo - 0.05 * span, hi + 0.05 * span


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 2.5, 5.0, 10.0)), key=lambda s: abs(s * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(round(v, 12))
        v += step
    return out


class SvgPlot:
    def __init__(self, title: str = "", xlabel: str = "", ylabel: str = ""):
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.series: list[tuple[np.ndarray, np.ndarray, str, str]] = []
        self.bars: tuple[np.ndarray, np.ndarray] | None = None

    def add_line(self, x, y, label: str = "", style: str = "line") -> None:
        self.series.append((np.asarray(x, float), np.asarray(y, float), label, style))

    def add_histogram(self, edges, counts) -> None:
        """Bars of the counts between consecutive edges (one more edge than counts)."""
        edges, counts = np.asarray(edges, float), np.asarray(counts, float)
        if edges.shape != (counts.size + 1,):
            raise ValueError(f"{counts.size} counts need {counts.size + 1} edges, "
                             f"not {edges.size}")
        self.bars = (edges, counts)

    def _limits(self):
        xs, ys = [], []
        for x, y, _, _ in self.series:
            m = np.isfinite(x) & np.isfinite(y)
            xs.append(x[m])
            ys.append(y[m])
        if self.bars is not None:
            xs.append(self.bars[0])
            ys.append(self.bars[1])
            ys.append(np.zeros(1))
        x_all = np.concatenate(xs) if xs else np.array([0.0, 1.0])
        y_all = np.concatenate(ys) if ys else np.array([0.0, 1.0])
        if x_all.size == 0:
            x_all = np.array([0.0, 1.0])
        if y_all.size == 0:
            y_all = np.array([0.0, 1.0])
        return (_padded(float(x_all.min()), float(x_all.max())),
                _padded(float(y_all.min()), float(y_all.max())))

    def write(self, path: str | Path) -> None:
        (x0, x1), (y0, y1) = self._limits()
        sx = lambda v: _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)
        sy = lambda v: _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W/2:.0f}" y="14" text-anchor="middle" font-size="13">{self.title}</text>',
        ]
        for tx in _ticks(x0, x1):
            parts.append(f'<line x1="{sx(tx):.1f}" y1="{_H-_MB}" x2="{sx(tx):.1f}" '
                         f'y2="{_H-_MB+4}" stroke="black"/>')
            parts.append(f'<text x="{sx(tx):.1f}" y="{_H-_MB+16}" text-anchor="middle" '
                         f'font-size="10">{tx:g}</text>')
        for ty in _ticks(y0, y1):
            parts.append(f'<line x1="{_ML-4}" y1="{sy(ty):.1f}" x2="{_ML}" '
                         f'y2="{sy(ty):.1f}" stroke="black"/>')
            parts.append(f'<text x="{_ML-6}" y="{sy(ty)+3:.1f}" text-anchor="end" '
                         f'font-size="10">{ty:g}</text>')
        parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
                     'fill="none" stroke="black"/>')
        parts.append(f'<text x="{_W/2:.0f}" y="{_H-8}" text-anchor="middle" '
                     f'font-size="12">{self.xlabel}</text>')
        parts.append(f'<text x="16" y="{_H/2:.0f}" text-anchor="middle" font-size="12" '
                     f'transform="rotate(-90 16 {_H/2:.0f})">{self.ylabel}</text>')
        if self.bars is not None:
            edges, counts = self.bars
            xe, ytop = sx(edges), sy(counts)
            width = np.maximum(xe[1:] - xe[:-1] - 0.5, 0.5)
            height = np.maximum(sy(0.0) - ytop, 0.0)
            parts += map('<rect x="{:.1f}" y="{:.1f}" width="{:.1f}" height="{:.1f}" '
                         'fill="#aec7e8" stroke="none"/>'.format,
                         xe[:-1].tolist(), ytop.tolist(), width.tolist(), height.tolist())
        for i, (x, y, label, style) in enumerate(self.series):
            color = _COLORS[i % len(_COLORS)]
            m = np.isfinite(x) & np.isfinite(y)
            px, py = sx(x[m]).tolist(), sy(y[m]).tolist()
            if style == "line":
                pts = " ".join(map("{:.1f},{:.1f}".format, px, py))
                parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                             'stroke-width="1.5"/>')
            else:
                circle = f'<circle cx="{{:.1f}}" cy="{{:.1f}}" r="2.5" fill="{color}"/>'
                parts += map(circle.format, px, py)
            if label:
                parts.append(f'<text x="{_W-_MR-8}" y="{_MT+14+14*i}" text-anchor="end" '
                             f'font-size="11" fill="{color}">{label}</text>')
        parts.append("</svg>")
        write_text(path, "\n".join(parts) + "\n")


def quick_line_plot(path: str | Path, x, ys: Sequence, labels: Sequence[str],
                    title: str = "", xlabel: str = "", ylabel: str = "",
                    styles: Sequence[str] | None = None) -> None:
    plot = SvgPlot(title=title, xlabel=xlabel, ylabel=ylabel)
    for i, y in enumerate(ys):
        style = styles[i] if styles else "line"
        plot.add_line(x, y, labels[i] if i < len(labels) else "", style)
    plot.write(path)


def histogram_plot(path: str | Path, samples, bins: int = 60, overlay_pdf=None,
                   title: str = "", xlabel: str = "", ylabel: str = "density") -> None:
    """Density histogram of the finite samples; with none, the axes only."""
    samples = np.asarray(samples, float)
    samples = samples[np.isfinite(samples)]
    plot = SvgPlot(title=title, xlabel=xlabel, ylabel=ylabel)
    if samples.size:
        counts, edges = np.histogram(samples, bins=bins, density=True)
        plot.add_histogram(edges, counts)
        if overlay_pdf is not None:
            xs = np.linspace(edges[0], edges[-1], 300)
            plot.add_line(xs, overlay_pdf(xs), "model")
    plot.write(path)
