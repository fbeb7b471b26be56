"""What the SVGs contain: one element per face, tangency point and horoball,
placed where the packing's arrays put it."""

import math
import xml.etree.ElementTree as ET

import numpy as np

from augcusp import catalog, render
from augcusp.augment import augment
from augcusp.geometry import assemble, maximal_cusp
from augcusp.packing import build_nerve, normalize_at_vertex, solve_packing

WHITE, DISK, DOT, BALL = "#1f77b4", "#d62728", "#2ca02c", "#9467bd"
NS = "{http://www.w3.org/2000/svg}"


def elements(svg, color):
    root = ET.fromstring(svg)
    return [e for e in root.iter() if color in (e.get("stroke"), e.get("fill"))]


def close(e, **want):
    """The element's attributes equal the wanted values to 5 decimals."""
    return all(abs(float(e.get(k)) - v) <= 5e-6 for k, v in want.items())


def assert_faces(items, center, radius, vertical):
    assert len(items) == len(center)
    for e, z, r in zip(items, center.tolist(), radius.tolist()):
        if math.isfinite(r):
            assert e.tag == NS + "circle"
            assert close(e, cx=z.real, cy=z.imag, r=r)
        elif vertical:
            assert e.tag == NS + "line"
            assert close(e, x1=z.real, x2=z.real)
        else:
            assert e.tag == NS + "line"
            assert close(e, y1=z.imag, y2=z.imag)


def test_cusp_frame_svgs_match_the_arrays():
    al, _ = augment(catalog.rational_link([2, 2, 2]))
    nerve = build_nerve(al)
    cusp = "0"
    norm = normalize_at_vertex(solve_packing(nerve), nerve.cusp_edges[cusp][0])
    svg = render.packing_svg(norm)

    whites = elements(svg, WHITE)
    assert_faces(whites, norm.center, norm.radius, vertical=False)
    lines = sorted(float(e.get("y1")) for e in whites if e.tag == NS + "line")
    assert lines == [0.0, 1.0]
    assert_faces(elements(svg, DISK), *norm.disks, vertical=True)
    points = norm.points[~np.isnan(norm.points)]
    dots = elements(svg, DOT)
    assert len(dots) == len(points) > 0
    for e, p in zip(dots, points.tolist()):
        assert e.tag == NS + "circle" and close(e, cx=p.real, cy=p.imag)

    hd = assemble(norm, al)
    maximal_cusp(hd, cusp)
    horo = render.horoball_svg(hd, cusp)
    assert_faces(elements(horo, WHITE), norm.center, norm.radius, vertical=False)
    assert_faces(elements(horo, DISK), *norm.disks, vertical=True)
    balls = elements(horo, BALL)
    assert len(balls) == len(hd.horoballs[cusp]) > 0
    for e, (p, diam) in zip(balls, hd.horoballs[cusp]):
        assert close(e, cx=p.real, cy=p.imag + diam / 2, r=diam / 2)
    assert not elements(horo, DOT)
