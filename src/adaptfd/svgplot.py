"""Static SVG rendering of grids and solutions (no plotting dependency)."""

from __future__ import annotations

import numpy as np

from .grid import CLASSES

CLASS_COLOR = {"regular": "#1f77b4", "dangling-x": "#d62728",
               "dangling-y": "#ff7f0e", "boundary": "#2ca02c",
               "inactive": "#7f7f7f"}

WIDTH = 720


def _mapper(box):
    scale = WIDTH / max(box.lx, box.ly)
    height = box.ly * scale

    def to_px(x, y):
        return ((x - box.x_min) * scale, height - (y - box.y_min) * scale)

    return to_px, height, scale


def grid_svg(grid) -> str:
    """One rectangle per leaf cell and one class-tagged marker per node."""
    to_px, height, scale = _mapper(grid.box)
    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">' % (WIDTH, int(height) + 1, WIDTH,
                                     int(height) + 1)]
    a, b, k = grid.cells_sorted().T
    s = 1 << k
    px, py = to_px(*grid.position(a, b + s))
    for row in zip(px.tolist(), py.tolist(), (s * grid.hx * scale).tolist(),
                   (s * grid.hy * scale).tolist()):
        out.append('<rect class="cell" x="%.2f" y="%.2f" width="%.2f" '
                   'height="%.2f" fill="none" stroke="#999" '
                   'stroke-width="0.5"/>' % row)
    radius = max(0.8, 0.22 * min(grid.hx, grid.hy) * scale)
    px, py = to_px(grid.x, grid.y)
    for c, x, y in zip(grid.klass.tolist(), px.tolist(), py.tolist()):
        out.append('<circle class="node %s" cx="%.2f" cy="%.2f" r="%.2f" '
                   'fill="%s"/>' % (CLASSES[c], x, y, radius,
                                    CLASS_COLOR[CLASSES[c]]))
    out.append("</svg>")
    return "\n".join(out)


def _colors(t):
    # blue (low) to red (high) through white, per value of t
    t = np.clip(t, 0.0, 1.0)
    low = t < 0.5
    f = np.where(low, t / 0.5, (t - 0.5) / 0.5)
    r = np.where(low, 40 + 215 * f, 255)
    g = np.where(low, 80 + 175 * f, 255 - 175 * f)
    b = np.where(low, 255, 255 - 215 * f)
    return ["#%02x%02x%02x" % c for c in zip(*(
        v.astype(int).tolist() for v in (r, g, b)))]


def solution_svg(grid, u, contours=None) -> str:
    """Leaf cells filled by value with optional contour polylines on top."""
    values = u.values if hasattr(u, "values") else np.asarray(u)
    to_px, height, scale = _mapper(grid.box)
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">' % (WIDTH, int(height) + 1, WIDTH,
                                     int(height) + 1)]
    a, b, k = grid.cells_sorted().T
    s = 1 << k
    corners = np.stack([grid.find(a, b), grid.find(a + s, b),
                        grid.find(a, b + s), grid.find(a + s, b + s)], axis=1)
    means = values[corners].mean(axis=1)
    px, py = to_px(*grid.position(a, b + s))
    for row in zip(px.tolist(), py.tolist(), (s * grid.hx * scale).tolist(),
                   (s * grid.hy * scale).tolist(),
                   _colors((means - lo) / span)):
        out.append('<rect class="cell" x="%.2f" y="%.2f" width="%.2f" '
                   'height="%.2f" fill="%s" stroke="none"/>' % row)
    polys = contours or []
    if isinstance(polys, dict):
        polys = [p for group in polys.values() for p in group]
    for poly in polys:
        pts = " ".join("%.2f,%.2f" % to_px(x, y) for (x, y) in poly)
        out.append('<polyline class="contour" points="%s" fill="none" '
                   'stroke="black" stroke-width="1.2"/>' % pts)
    out.append("</svg>")
    return "\n".join(out)
