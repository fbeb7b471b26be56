"""The array path of the per-cusp stages against scalar references.

The references are the loops the array code replaced: the triple loop of
`maximal_cusp` over lift pairs and lattice shifts, and the three-point circle
through the tangencies of a shaded triangle.
"""

import cmath
import math

import pytest

from augcusp import catalog
from augcusp.augment import augment
from augcusp.errors import UnsupportedLinkError
from augcusp.families import fal_corpus
from augcusp.geometry import _kappa, assemble, cusp_lattice, maximal_cusp
from augcusp.packing import build_nerve, normalize_at_vertex, solve_packing


def scalar_maximal_cusp(hd, cusp):
    """Reference: height, witness and every pair candidate (i, j) -> the
    largest sqrt(kappa_i kappa_j) / |p_j + t - p_i| over the shifts t."""
    nerve = hd.nerve
    best = hd.finite_radius_max()
    witness = "face tangency"
    lifts = []
    for k, e in enumerate(nerve.edges):
        if e.cusp != cusp or k == hd.infinity_edge:
            continue
        p = complex(hd.packing.points[k])
        kap = float(_kappa(hd, k))
        lifts.append((p, kap))
        if math.sqrt(kap) > best:
            best = math.sqrt(kap)
            witness = f"horoball tangency at edge {k}"
    mu, lam = cusp_lattice(hd, cusp)[:2]
    shifts = [a * mu + b * lam for a in (-1, 0, 1) for b in (-1, 0, 1)]
    pair = {}
    for i in range(len(lifts)):
        for j in range(len(lifts)):
            for t in shifts:
                if i == j and abs(t) < 1e-14:
                    continue
                p, kp = lifts[i]
                q, kq = lifts[j]
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
            eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == cusp)
            yield name, al, cusp, normalize_at_vertex(packing, eid)


FRAMES = list(cusp_frames())
IDS = [f"{name}:{cusp}" for name, _al, cusp, _norm in FRAMES]


@pytest.mark.parametrize("name, al, cusp, norm", FRAMES, ids=IDS)
def test_maximal_cusp_matches_scalar_loop(name, al, cusp, norm):
    hd = assemble(norm, al)
    ref_height, ref_witness, pair = scalar_maximal_cusp(hd, cusp)
    height, witness = maximal_cusp(hd, cusp)
    assert abs(height - ref_height) <= 1e-12 * ref_height
    if witness != ref_witness:
        # Only a tie may name another witness: both attain the height.
        for w in (witness, ref_witness):
            last = w.rsplit(" ", 1)[1]
            if w.startswith("horoball pair"):
                value = pair[tuple(map(int, last.split(",")))]
            elif w.startswith("horoball tangency"):
                value = math.sqrt(_kappa(hd, int(last)))
            else:
                value = hd.finite_radius_max()
            assert abs(value - ref_height) <= 1e-12 * ref_height


@pytest.mark.parametrize("name, al, cusp, norm", FRAMES, ids=IDS)
def test_shaded_circles_match_three_point_circle(name, al, cusp, norm):
    centers, radii = norm.disks
    for k, (eids, _lab, _side) in enumerate(norm.nerve.triangles):
        c, r = circle_through(norm.points[list(eids)].tolist())
        if math.isinf(r):
            assert math.isinf(radii[k])
            assert abs(centers[k].real - c.real) <= 1e-12
        else:
            assert abs(centers[k] - c) <= 1e-12 * max(1.0, abs(c))
            assert abs(radii[k] - r) <= 1e-12 * max(1.0, r)
