"""Static SVG rendering of grids and solutions (no plotting dependency)."""

from __future__ import annotations

import numpy as np

from .grid import CLASSES, text_by_key

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


def _fixed(v):
    return "%.2f" % v


def _cell_text(grid, to_px, scale):
    """Text of x, y, width and height of every leaf rect, in dump order:
    x depends on a alone, y on b + s and the sides on k, so each distinct
    value is formatted once."""
    a, b, k = grid.cells_sorted().T
    s = 1 << k
    px, py = to_px(*grid.position(a, b + s))
    return [text_by_key(key, val, _fixed) for key, val in (
        (a, px), (b + s, py), (k, s * grid.hx * scale),
        (k, s * grid.hy * scale))]


def _head(height):
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (WIDTH, int(height) + 1, WIDTH,
                                      int(height) + 1))


def grid_svg(grid) -> str:
    """One rectangle per leaf cell and one class-tagged marker per node."""
    to_px, height, scale = _mapper(grid.box)
    out = [_head(height)]
    out += map('<rect class="cell" x="%s" y="%s" width="%s" height="%s" '
               'fill="none" stroke="#999" stroke-width="0.5"/>'.__mod__,
               zip(*_cell_text(grid, to_px, scale)))
    radius = max(0.8, 0.22 * min(grid.hx, grid.hy) * scale)
    px, py = to_px(grid.x, grid.y)
    names = np.array(CLASSES, dtype=object)[grid.klass].tolist()
    fills = np.array([CLASS_COLOR[c] for c in CLASSES],
                     dtype=object)[grid.klass].tolist()
    out += map(('<circle class="node %%s" cx="%%s" cy="%%s" r="%.2f" '
                'fill="%%s"/>' % radius).__mod__, zip(
                    names, text_by_key(grid.i, px, _fixed),
                    text_by_key(grid.j, py, _fixed), fills))
    out.append("</svg>")
    return "\n".join(out)


def _colors(t):
    # blue (low) to red (high) through white, per value of t; each distinct
    # (r, g, b) is formatted once
    t = np.clip(t, 0.0, 1.0)
    low = t < 0.5
    f = np.where(low, t / 0.5, (t - 0.5) / 0.5)
    r = np.where(low, 40 + 215 * f, 255).astype(int)
    g = np.where(low, 80 + 175 * f, 255 - 175 * f).astype(int)
    b = np.where(low, 255, 255 - 215 * f).astype(int)
    _, key = np.unique((r * 256 + g) * 256 + b, return_inverse=True)
    return text_by_key(key, np.stack([r, g, b], axis=1),
                       lambda c: "#%02x%02x%02x" % tuple(c))


def solution_svg(grid, values, polylines=()) -> str:
    """Leaf cells filled by the node values, with polylines on top."""
    to_px, height, scale = _mapper(grid.box)
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    out = [_head(height)]
    a, b, k = grid.cells_sorted().T
    s = 1 << k
    corners = np.stack([grid.find(a, b), grid.find(a + s, b),
                        grid.find(a, b + s), grid.find(a + s, b + s)], axis=1)
    means = values[corners].mean(axis=1)
    out += map('<rect class="cell" x="%s" y="%s" width="%s" height="%s" '
               'fill="%s" stroke="none"/>'.__mod__,
               zip(*_cell_text(grid, to_px, scale),
                   _colors((means - lo) / span)))
    for poly in polylines:
        pts = " ".join("%.2f,%.2f" % to_px(x, y) for (x, y) in poly)
        out.append('<polyline class="contour" points="%s" fill="none" '
                   'stroke="black" stroke-width="1.2"/>' % pts)
    out.append("</svg>")
    return "\n".join(out)
