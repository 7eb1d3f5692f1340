"""Tiny dependency-free SVG line plots for the CLI artifacts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_COLORS = ("#1f6fb2", "#d1495b", "#3c8d53", "#8a5fb0")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 58, 14, 30, 42
_PANEL_W, _PANEL_H = 380, 280


@dataclass
class Panel:
    """One set of axes: line series plus optional scatter points."""

    title: str
    xlabel: str
    ylabel: str
    series: list                                 # (x, y) pairs
    points: list = field(default_factory=list)   # (x, y) pairs


def _nice_ticks(lo: float, hi: float):
    raw = (hi - lo) / 5
    if not 0.0 < raw < math.inf:  # also an empty, non-finite or underflowing (5e-324) span
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    if mag == 0.0:  # a span of a few subnormals: its decade 1e-324 underflows
        return [lo]
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        if v + step == v:  # span below the float spacing at v
            break
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _panel_svg(panel: Panel, x0: float, y0: float, width: float, height: float):
    xs = [s[0] for s in panel.series] + [p[0] for p in panel.points]
    ys = [s[1] for s in panel.series] + [p[1] for p in panel.points]
    if not xs:
        return []
    xlo = min(float(np.min(x)) for x in xs)
    xhi = max(float(np.max(x)) for x in xs)
    ylo = min(float(np.min(y)) for y in ys)
    yhi = max(float(np.max(y)) for y in ys)
    if xhi == xlo:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    px0, py0 = x0 + _MARGIN_L, y0 + _MARGIN_T
    pw = width - _MARGIN_L - _MARGIN_R
    ph = height - _MARGIN_T - _MARGIN_B

    def sx(v):
        return px0 + (v - xlo) / (xhi - xlo) * pw

    def sy(v):
        return py0 + ph - (v - ylo) / (yhi - ylo) * ph

    out = [f'<rect x="{px0:.1f}" y="{py0:.1f}" width="{pw:.1f}" height="{ph:.1f}" '
           'fill="none" stroke="#444" stroke-width="1"/>']
    for tick in _nice_ticks(xlo, xhi):
        out.append(f'<line x1="{sx(tick):.1f}" y1="{py0 + ph:.1f}" '
                   f'x2="{sx(tick):.1f}" y2="{py0 + ph + 4:.1f}" stroke="#444"/>')
        out.append(f'<text x="{sx(tick):.1f}" y="{py0 + ph + 16:.1f}" '
                   f'text-anchor="middle" font-size="10">{_fmt(tick)}</text>')
    for tick in _nice_ticks(ylo, yhi):
        out.append(f'<line x1="{px0 - 4:.1f}" y1="{sy(tick):.1f}" '
                   f'x2="{px0:.1f}" y2="{sy(tick):.1f}" stroke="#444"/>')
        out.append(f'<text x="{px0 - 7:.1f}" y="{sy(tick) + 3:.1f}" '
                   f'text-anchor="end" font-size="10">{_fmt(tick)}</text>')
    out.append(f'<text x="{x0 + width / 2:.1f}" y="{y0 + 16:.1f}" '
               f'text-anchor="middle" font-size="12">{panel.title}</text>')
    out.append(f'<text x="{px0 + pw / 2:.1f}" y="{y0 + height - 8:.1f}" '
               f'text-anchor="middle" font-size="11">{panel.xlabel}</text>')
    cx, cy = x0 + 14, py0 + ph / 2
    out.append(f'<text x="{cx:.1f}" y="{cy:.1f}" text-anchor="middle" '
               f'font-size="11" transform="rotate(-90 {cx:.1f} {cy:.1f})">'
               f'{panel.ylabel}</text>')
    for i, (x, y) in enumerate(panel.series):
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{_COLORS[i % len(_COLORS)]}" stroke-width="1.5"/>')
    for i, (x, y) in enumerate(panel.points):
        color = _COLORS[(i + 1) % len(_COLORS)]
        for a, b in zip(x, y):
            out.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="2" '
                       f'fill="{color}" fill-opacity="0.7"/>')
    return out


def render_panels(panels) -> str:
    """Lay panels out two to a row and return the SVG document text."""
    n = len(panels)
    columns = max(1, min(2, n))
    rows = (n + columns - 1) // columns
    total_w = columns * _PANEL_W
    total_h = rows * _PANEL_H
    body = []
    for i, panel in enumerate(panels):
        r, c = divmod(i, columns)
        body.extend(_panel_svg(panel, c * _PANEL_W, r * _PANEL_H, _PANEL_W, _PANEL_H))
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
            f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">'
            '<rect width="100%" height="100%" fill="white"/>')
    return head + "".join(body) + "</svg>\n"


def write_svg(path: str, panels) -> None:
    from .serialize import _atomic_write
    _atomic_write(path, render_panels(panels))
