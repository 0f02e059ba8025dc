"""Static SVG plots of real affine loci by marching squares.

Signs come from exact rational evaluation of the dehomogenized equation on
the grid; floating point enters only in the linear interpolation of segment
endpoints.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .curves import PlaneCurve
from .fields import as_fraction

# cell-edge pairs per sign index; edges are (corner, corner) with corners
# 0=(x0,y0) 1=(x1,y0) 2=(x1,y1) 3=(x0,y1)
_EDGES = {
    1: [((0, 1), (0, 3))],
    2: [((1, 0), (1, 2))],
    3: [((0, 3), (1, 2))],
    4: [((2, 1), (2, 3))],
    6: [((1, 0), (2, 3))],
    7: [((0, 3), (2, 3))],
    8: [((3, 0), (3, 2))],
    9: [((0, 1), (3, 2))],
    11: [((1, 2), (3, 2))],
    12: [((2, 1), (3, 0))],
    13: [((0, 1), (2, 1))],
    14: [((1, 0), (3, 0))],
}
# ambiguous saddles: (segments for center > 0, segments for center <= 0)
_AMBIG = {5: ([((0, 1), (1, 2)), ((0, 3), (2, 3))],
              [((0, 1), (0, 3)), ((1, 2), (2, 3))]),
          10: ([((0, 1), (0, 3)), ((1, 2), (2, 3))],
               [((0, 1), (1, 2)), ((0, 3), (2, 3))])}


@dataclass
class PlotSpec:
    window: Tuple[Fraction, Fraction, Fraction, Fraction]   # xmin, xmax, ymin, ymax
    grid: int = 64
    width: int = 480
    stroke: str = "#1a4f8b"
    stroke_width: float = 1.5

    def __post_init__(self):
        xmin, xmax, ymin, ymax = (Fraction(v) for v in self.window)
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("degenerate plot window")
        if self.grid < 16:
            raise ValueError("grid must be at least 16 samples per axis")
        self.window = (xmin, xmax, ymin, ymax)


def marching_segments(curve: PlaneCurve, spec: PlotSpec) -> List[Tuple[float, float, float, float]]:
    """Line segments approximating the real affine locus, from exact sign
    samples with linear interpolation along cell edges."""
    eq = curve.equation
    for c in eq.terms.values():
        if as_fraction(c) is None:
            raise ValueError("plotting requires real coefficients")
    aff = eq.dehomogenize("z")
    xmin, xmax, ymin, ymax = spec.window
    n = spec.grid
    dx = (xmax - xmin) / n
    dy = (ymax - ymin) / n
    xs = [xmin + dx * k for k in range(n + 1)]
    ys = [ymin + dy * k for k in range(n + 1)]
    values = [[aff.evaluate({"x": x, "y": y}) for y in ys] for x in xs]
    segments: List[Tuple[float, float, float, float]] = []

    def interp(pa, pb, va, vb):
        if va == vb:
            t = Fraction(1, 2)
        else:
            t = va / (va - vb)
            t = min(max(t, Fraction(0)), Fraction(1))
        return (float(pa[0] + (pb[0] - pa[0]) * t), float(pa[1] + (pb[1] - pa[1]) * t))

    for i in range(n):
        for j in range(n):
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            vals = [values[i][j], values[i + 1][j], values[i + 1][j + 1], values[i][j + 1]]
            idx = sum(1 << k for k, v in enumerate(vals) if v > 0)
            if idx in (0, 15):
                continue
            if idx in _AMBIG:
                center = aff.evaluate({"x": xs[i] + dx / 2, "y": ys[j] + dy / 2})
                edges = _AMBIG[idx][0 if center > 0 else 1]
            else:
                edges = _EDGES[idx]
            for (a1, a2), (b1, b2) in edges:
                p = interp(corners[a1], corners[a2], vals[a1], vals[a2])
                q = interp(corners[b1], corners[b2], vals[b1], vals[b2])
                segments.append((p[0], p[1], q[0], q[1]))
    return segments


def render_svg(curve: PlaneCurve, spec: PlotSpec) -> str:
    """An SVG 1.1 document of the curve's real affine locus."""
    xmin, xmax, ymin, ymax = spec.window
    w = spec.width
    h = int(round(w * float((ymax - ymin) / (xmax - xmin))))
    sx = w / float(xmax - xmin)
    sy = h / float(ymax - ymin)

    def to_px(x, y):
        return ((x - float(xmin)) * sx, (float(ymax) - y) * sy)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    if xmin < 0 < xmax:
        px = to_px(0.0, 0.0)[0]
        lines.append(f'<line x1="{px:.2f}" y1="0" x2="{px:.2f}" y2="{h}" '
                     'stroke="#cccccc" stroke-width="1"/>')
    if ymin < 0 < ymax:
        py = to_px(0.0, 0.0)[1]
        lines.append(f'<line x1="0" y1="{py:.2f}" x2="{w}" y2="{py:.2f}" '
                     'stroke="#cccccc" stroke-width="1"/>')
    for x1, y1, x2, y2 in marching_segments(curve, spec):
        (px1, py1), (px2, py2) = to_px(x1, y1), to_px(x2, y2)
        lines.append(
            f'<line x1="{px1:.4f}" y1="{py1:.4f}" x2="{px2:.4f}" y2="{py2:.4f}" '
            f'stroke="{spec.stroke}" stroke-width="{spec.stroke_width}" '
            'stroke-linecap="round"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
