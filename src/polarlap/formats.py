"""Plain-text result emitters: PGM images, CSV tables, SVG sweep plots, JSON.

All emitters are deterministic (fixed float formatting, no timestamps), so
re-running a scenario reproduces its outputs byte for byte.
"""

from __future__ import annotations

import json
import math
from itertools import product, repeat

import numpy as np

from .geometry import RasterSet
from .rearrange import GridFunction

CSV_HEADER = "param,lambda,converged,outer_iters,residual"


def _fnum(x: float) -> str:
    return format(float(x), ".17g")


def raster_to_pgm(A: RasterSet) -> str:
    """P2 image, maxval 1, top row = highest y."""
    ny, nx = A.grid.shape
    lines = ["P2", f"{nx} {ny}", "1"]
    for iy in range(ny - 1, -1, -1):
        lines.append(" ".join("1" if v else "0" for v in A.mask[iy]))
    return "\n".join(lines) + "\n"


def function_to_pgm(u: GridFunction) -> str:
    """P2 image of nodal values rescaled to 0..255, top row = highest y."""
    v = u.values
    vmin, vmax = float(v.min()), float(v.max())
    if vmax > vmin:
        q = np.rint(255.0 * (v - vmin) / (vmax - vmin)).astype(int)
    else:
        q = np.zeros_like(v, dtype=int)
    ny1, nx1 = v.shape
    lines = ["P2", f"{nx1} {ny1}", "255"]
    for iy in range(ny1 - 1, -1, -1):
        lines.append(" ".join(map(str, q[iy].tolist())))
    return "\n".join(lines) + "\n"


def function_to_csv(u: GridFunction) -> str:
    """Flat node table: node index, x, y, value."""
    ox, oy = u.grid.origin
    d = u.grid.spacing
    ny1, nx1 = u.grid.node_shape
    xs = [_fnum(ox + ix * d) for ix in range(nx1)]
    ys = [_fnum(oy + iy * d) for iy in range(ny1)]
    # each coordinate is formatted once and the values lazily, so the rows
    # are the only full-size list of strings
    values = map(format, u.values.ravel().tolist(), repeat(".17g"))
    rows = (f"{nid},{x},{y},{v}" for nid, ((y, x), v) in
            enumerate(zip(product(ys, xs), values)))
    return "node,x,y,value\n" + "\n".join(rows) + "\n"


def sweep_to_csv(params, lambdas, converged, outer_iters, residuals) -> str:
    rows = [CSV_HEADER]
    for s, lam, conv, it, res in zip(params, lambdas, converged, outer_iters,
                                     residuals):
        rows.append(f"{_fnum(s)},{_fnum(lam)},{'true' if conv else 'false'},"
                    f"{int(it)},{_fnum(res)}")
    return "\n".join(rows) + "\n"


def _finite(v):
    """v with every non-finite float replaced by None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def dumps_json(obj) -> str:
    """Strict JSON (RFC 8259): a non-finite float is written null."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _svg_num(x: float) -> str:
    return format(float(x), ".6g")


def sweep_to_svg(params, lambdas, converged, param_name: str = "param") -> str:
    """Single-polyline plot; unconverged points become hollow markers.  Only
    the points with a finite lambda are drawn, and they set the axes."""
    if len(params) < 2:
        raise ValueError("sweep plot needs at least 2 points")
    shown = [pt for pt in zip(params, lambdas, converged) if math.isfinite(pt[1])]
    xs, ys, _ = zip(*shown or [(0.0, 0.0, False)])
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 80.0, 25.0, 25.0, 60.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v):
        return height - mb - (v - y0) / (y1 - y0) * (height - mt - mb)

    pts = " ".join(f"{_svg_num(sx(s))},{_svg_num(sy(l))}"
                   for s, l, _ in shown)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{ml:g}" y1="{height - mb:g}" x2="{width - mr:g}" '
        f'y2="{height - mb:g}" stroke="black"/>',
        f'<line x1="{ml:g}" y1="{mt:g}" x2="{ml:g}" y2="{height - mb:g}" '
        'stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    for s, lam, conv in shown:
        fill = "black" if conv else "none"
        parts.append(f'<circle cx="{_svg_num(sx(s))}" cy="{_svg_num(sy(lam))}" '
                     f'r="4" fill="{fill}" stroke="black"/>')
    parts += [
        f'<text x="{(ml + width - mr) / 2:g}" y="{height - 15:g}" '
        f'text-anchor="middle" font-size="16">{param_name}</text>',
        f'<text x="20" y="{(mt + height - mb) / 2:g}" text-anchor="middle" '
        f'font-size="16" transform="rotate(-90 20 {(mt + height - mb) / 2:g})">'
        'lambda</text>',
        f'<text x="{ml:g}" y="{height - mb + 20:g}" text-anchor="middle" '
        f'font-size="12">{_svg_num(x0)}</text>',
        f'<text x="{width - mr:g}" y="{height - mb + 20:g}" text-anchor="middle" '
        f'font-size="12">{_svg_num(x1)}</text>',
        f'<text x="{ml - 8:g}" y="{height - mb:g}" text-anchor="end" '
        f'font-size="12">{_svg_num(y0)}</text>',
        f'<text x="{ml - 8:g}" y="{mt + 5:g}" text-anchor="end" '
        f'font-size="12">{_svg_num(y1)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
