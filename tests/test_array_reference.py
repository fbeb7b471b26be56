"""The array path of the per-cusp stages against scalar references.

The references are the loops the array code replaced: the triple loop of
`maximal_cusp` over lift pairs and lattice shifts, and the three-point circle
through the tangencies of a shaded triangle, scalar and as array algebra;
the tangency residuals as np.where over whole arrays, the formula that the
in-place derivation replaced; and an exact oracle, the integer curvatures of
chain cusp frames.
"""

import cmath
import math

import numpy as np
import pytest
from test_geometry import LADDER, ladder_packings

from augcusp import catalog, geometry
from augcusp.augment import augment
from augcusp.errors import UnsupportedLinkError
from augcusp.families import fal_corpus
from augcusp.geometry import _kappa, assemble, cusp_lattice, maximal_cusp
from augcusp.packing import CirclePacking, build_nerve, normalize_at_vertex, solve_packing


def finite_radius_max(frame):
    """The largest finite radius of a white or shaded face."""
    radii = (*frame.radius.tolist(), *frame.disks[1].tolist())
    return max((r for r in radii if math.isfinite(r)), default=0.0)


def scalar_maximal_cusp(frame):
    """Reference: height, witness and every pair candidate (i, j) -> the
    largest sqrt(kappa_i kappa_j) / |p_j + t - p_i| over the shifts t, with
    i and j edge ids."""
    nerve = frame.nerve
    inf_edge = frame.normalization["infinity_edge"]
    cusp = nerve.edge_cusp[inf_edge]
    best = finite_radius_max(frame)
    witness = "face tangency"
    lifts = []
    for k in nerve.cusp_edges[cusp]:
        if k == inf_edge:
            continue
        p = complex(frame.points[k])
        kap = float(_kappa(frame, k))
        lifts.append((k, p, kap))
        if math.sqrt(kap) > best:
            best = math.sqrt(kap)
            witness = f"horoball tangency at edge {k}"
    mu, lam = cusp_lattice(frame)[:2]
    shifts = [a * mu + b * lam for a in (-1, 0, 1) for b in (-1, 0, 1)]
    pair = {}
    for i, p, kp in lifts:
        for j, q, kq in lifts:
            for t in shifts:
                if i == j and abs(t) < 1e-14:
                    continue
                d = abs((q + t) - p)
                if d < 1e-14:
                    continue
                cand = math.sqrt(kp * kq) / d
                pair[i, j] = max(pair.get((i, j), 0.0), cand)
                if cand > best + 1e-15:
                    best = cand
                    witness = f"horoball pair at edges near {i},{j}"
    return best, witness, pair


def circle_through(pts):
    """Reference: (centre, radius) of the circle through three points, or
    (x, inf) for the vertical line through two of them (nan is infinity)."""
    finite = [p for p in pts if not cmath.isnan(p)]
    if len(finite) == 2:
        return complex(finite[0].real), math.inf
    z1, z2, z3 = finite
    ax, ay = z1.real, z1.imag
    bx, by = z2.real, z2.imag
    cx, cy = z3.real, z3.imag
    dmat = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / dmat
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / dmat
    center = complex(ux, uy)
    return center, abs(center - z1)


def corpus():
    out = []
    for name, al in fal_corpus(4):
        try:
            out.append((name, al, build_nerve(al)))
        except UnsupportedLinkError:
            continue
    for name, d in (("chain-9", catalog.two_bridge_chain(9)),
                    ("pretzel-3x6", catalog.pretzel_link([3] * 6))):
        al, _ = augment(d)
        out.append((name, al, build_nerve(al)))
    return out


def cusp_frames():
    for name, al, nerve in corpus():
        packing = solve_packing(nerve)
        for cusp in nerve.cusps():
            eid = nerve.cusp_edges[cusp][0]
            yield name, al, cusp, normalize_at_vertex(packing, eid)


FRAMES = list(cusp_frames())
IDS = [f"{name}:{cusp}" for name, _al, cusp, _norm in FRAMES]


@pytest.mark.parametrize("name, al, cusp, norm", FRAMES, ids=IDS)
def test_maximal_cusp_matches_scalar_loop(name, al, cusp, norm):
    frame = assemble(norm)
    ref_height, ref_witness, pair = scalar_maximal_cusp(frame)
    height, witness, _ = maximal_cusp(frame)
    assert abs(height - ref_height) <= 1e-12 * ref_height
    if witness != ref_witness:
        # Only a tie may name another witness: both attain the height.
        for w in (witness, ref_witness):
            last = w.rsplit(" ", 1)[1]
            if w.startswith("horoball pair"):
                value = pair[tuple(map(int, last.split(",")))]
            elif w.startswith("horoball tangency"):
                value = math.sqrt(_kappa(frame, int(last)))
            else:
                value = finite_radius_max(frame)
            assert abs(value - ref_height) <= 1e-12 * ref_height


@pytest.mark.parametrize("name, al, cusp, norm", FRAMES, ids=IDS)
def test_shaded_circles_match_three_point_circle(name, al, cusp, norm):
    centers, radii = norm.disks
    for k, eids in enumerate(norm.nerve.triangle_edges):
        c, r = circle_through(norm.points[eids].tolist())
        if math.isinf(r):
            assert math.isinf(radii[k])
            assert abs(centers[k].real - c.real) <= 1e-12
        else:
            assert abs(centers[k] - c) <= 1e-12 * max(1.0, abs(c))
            assert abs(radii[k] - r) <= 1e-12 * max(1.0, r)


def reference_disks(packing):
    """Reference: the shaded circles as circumcircles of their triangles'
    three tangency points, by the circumcentre of p1, p1 + s, p1 + t, which
    is p1 + (|s|^2 t - |t|^2 s) / (conj(s) t - s conj(t)); a triangle with
    the point at infinity is the vertical line through its finite points.
    Works on a block of frames too."""
    pts = packing.points[..., packing.nerve.triangle_edges]
    vertical = np.isnan(pts).any(axis=-1)
    p1, s, t = pts[..., 0], pts[..., 1] - pts[..., 0], pts[..., 2] - pts[..., 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = (abs(s) ** 2 * t - abs(t) ** 2 * s) / (2j * (s.conjugate() * t).imag)
    foot = np.fmax.reduce(pts.real, axis=-1)
    center = np.where(vertical, foot, p1 + rel).astype(complex, copy=False)
    radius = np.where(vertical, np.inf, abs(rel)).astype(float, copy=False)
    return center, radius


def cusp_block(packing):
    nerve = packing.nerve
    return normalize_at_vertex(packing, np.array([nerve.cusp_edges[c][0] for c in nerve.cusps()]))


@pytest.mark.parametrize("k", [21, 61])
def test_shaded_radii_are_exact_on_integer_curvatures(k):
    # Every white of a chain's cusp frame has an integer curvature, so the
    # shaded radius 1 / sqrt(k_a k_b + k_b k_c + k_c k_a) is known exactly.
    block = cusp_block(solve_packing(build_nerve(augment(catalog.two_bridge_chain(k))[0])))
    curvature = 1.0 / block.radius
    exact = np.rint(curvature)
    assert np.all(abs(curvature - exact) <= 1e-9)
    ka, kb, kc = np.moveaxis(exact.astype(np.int64)[:, block.nerve.triangle_whites], 2, 0)
    products = ka * kb + kb * kc + kc * ka
    finite = products > 0
    want = 1.0 / np.sqrt(products[finite].astype(float))  # the sums are exact in float64
    assert np.all(abs(block.disk_radius[finite] - want) <= 1e-14 * want)
    assert np.isinf(block.disk_radius[~finite]).all() and (~finite).sum() == 2 * len(block)


@pytest.mark.parametrize("name", list(LADDER))
def test_lift_spacing_and_verticality_match_the_circumcircles(name):
    (packing,) = ladder_packings(name)
    block = cusp_block(packing)
    rows = geometry._rows(block)
    center, radius = reference_disks(block)
    frames = np.arange(len(block))[:, None]
    lifts = block.nerve.edge_triangles[block.normalization["infinity_edge"]]
    x = center[frames, lifts].real
    assert rows.spacing == abs(x[:, 1] - x[:, 0]).tolist()
    assert rows.vertical == np.isinf(radius[frames, lifts]).all(axis=1).tolist()
    assert all(rows.vertical)


def reference_residuals(packing):
    """Reference: the residuals by np.where over every edge, for a packing or
    a block of frames."""
    a, b = packing.nerve.ends
    za, zb, ra, rb = (x[..., i] for x in (packing.center, packing.radius) for i in (a, b))
    dy = abs(zb.imag - za.imag)
    out = np.where(np.isinf(ra), abs(dy - rb), abs(abs(zb - za) - ra - rb))
    out = np.where(np.isinf(rb), abs(dy - ra), out)
    out[np.isinf(ra) & np.isinf(rb)] = 0.0
    return out


@pytest.mark.parametrize("name", ["chain-121", "pretzel-3x60"])
def test_residuals_are_the_where_formula(name):
    """Bit for bit, on the strip and on a block of every cusp's frame and
    the frame of the strip's own edge at infinity (a row at infinity, mapped
    by a translation and scale)."""
    (packing,) = ladder_packings(name)
    nerve = packing.nerve
    eids = np.array([nerve.cusp_edges[c][0] for c in nerve.cusps()] + [nerve.infinity_edge])
    block = normalize_at_vertex(packing, eids)
    for p in (packing, block):
        assert np.array_equal(CirclePacking.residuals.func(p), reference_residuals(p))
    # Each frame's one line-line edge is its edge at infinity, residual 0.
    a, b = nerve.ends
    lines = np.isinf(block.radius)
    both = lines[:, a] & lines[:, b]
    assert (np.flatnonzero(both) % len(a) == eids).all()
    assert not block.residuals[both].any()
    assert (lines[:, a] ^ lines[:, b]).sum() > len(block)  # circles at a line
