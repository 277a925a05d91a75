import numpy as np
import pytest

from adaptfd.contour import extract_contour, hausdorff_distance
from adaptfd.grid import DomainBox, build_quadtree
from adaptfd.harness import uniform_requests

UNIT = DomainBox(0.0, 1.0, 0.0, 1.0)


def uniform_grid(depth, box=UNIT):
    return build_quadtree(uniform_requests(box, depth, 0), depth, box,
                          pads=(1, 1))


def field(grid, f):
    return np.array([f(x, y) for x, y in zip(grid.x.tolist(),
                                             grid.y.tolist())])


def test_linear_field_gives_single_vertical_line():
    g = uniform_grid(4)
    u = field(g, lambda x, y: x - 0.5)
    polys = extract_contour(g, u, level=0.0)
    assert len(polys) == 1
    pts = polys[0]
    assert np.max(np.abs(pts[:, 0] - 0.5)) < 1e-12
    assert pts[:, 1].min() == pytest.approx(0.0)
    assert pts[:, 1].max() == pytest.approx(1.0)


def test_level_outside_range_empty():
    g = uniform_grid(3)
    u = field(g, lambda x, y: x)
    assert extract_contour(g, u, level=7.5) == []


def test_circle_contour_second_order_accurate():
    box = DomainBox(-1.0, 1.0, -1.0, 1.0)
    devs = []
    for depth in (5, 6):
        g = uniform_grid(depth, box)
        u = field(g, lambda x, y: x * x + y * y - 0.25)
        polys = extract_contour(g, u, level=0.0)
        assert len(polys) == 1
        pts = polys[0]
        assert tuple(pts[0]) == tuple(pts[-1])        # closed
        r = np.hypot(pts[:, 0], pts[:, 1])
        devs.append(np.max(np.abs(r - 0.5)))
        h = box.lx / (1 << depth)
        assert devs[-1] <= 2 * h * h
    assert devs[1] <= 0.35 * devs[0]


def test_contour_stitches_across_scale_change():
    # fine column on the left, coarse elsewhere; a horizontal level line
    # crosses the hanging edges and must come out as one unbroken polyline
    side = 1 << 4
    fine = uniform_requests(UNIT, 4, 0)
    reqs = np.concatenate([uniform_requests(UNIT, 4, 1),
                           fine[fine[:, 0] == 0]])
    g = build_quadtree(reqs, 4, UNIT, pads=(1, 1))
    assert g.scales() == [0, 1]
    u = field(g, lambda x, y: y - 0.53)
    polys = extract_contour(g, u, level=0.0)
    assert len(polys) == 1
    pts = polys[0]
    assert np.max(np.abs(pts[:, 1] - 0.53)) < 1e-12
    xs = sorted(pts[:, 0])
    assert xs[0] == pytest.approx(0.0) and xs[-1] == pytest.approx(1.0)
    gaps = np.diff(xs)
    assert gaps.max() <= 2.0 / side + 1e-12


def test_predicate_contour_matches_shifted_level():
    # the level of the values equals the zero level of the shifted values,
    # the form the harness traces a contact margin in
    g = uniform_grid(4)
    u = field(g, lambda x, y: x * x + y * y)
    a = extract_contour(g, u, level=0.25)
    b = extract_contour(g, u - 0.25, level=0.0)
    assert hausdorff_distance(a, b) < 1e-14


def test_hausdorff_distance_basics():
    a = [np.array([[0.0, 0.0], [1.0, 0.0]])]
    b = [np.array([[0.0, 0.1], [1.0, 0.1]])]
    assert hausdorff_distance(a, b) == pytest.approx(0.1)
    assert hausdorff_distance(a, []) == np.inf
