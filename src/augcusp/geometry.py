"""Upper-half-space geometry over a solved packing: cusps and slope lengths.

With a cusp normalized to infinity, the white faces tangent there become two
parallel vertical planes (lifts of the reflection surface) and the crossing
disk faces through the same point become perpendicular vertical planes.  The
cusp cross-section is tiled by rectangles, one per ideal vertex, and every
measured quantity reduces to spacings of those planes and Euclidean sizes of
horoball lifts, matched across the cusp by the constant spacing of the
reflection-surface lifts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .augment import AugmentedLink
from .errors import ConvergenceError, MeasuringError, UnsupportedLinkError
from .packing import (
    CirclePacking,
    FrameBlock,
    Nerve,
    build_nerve,
    normalize_at_vertex,
    solve_packing,
)

# After .packing on purpose: without cached bytecode every module is compiled
# at import, and compiling packing (the largest) after numpy is loaded adds
# its compile peak to numpy's memory, about 2 MB more peak RSS.
import numpy as np

log = logging.getLogger(__name__)


@dataclass
class CuspShape:
    cusp: str
    meridian: complex
    longitude: complex
    height: float

    @property
    def meridian_length(self) -> float:
        return abs(self.meridian) / self.height

    @property
    def longitude_length(self) -> float:
        return abs(self.longitude) / self.height

    @property
    def modulus(self) -> complex:
        return self.longitude / self.meridian

    @property
    def torus_area(self) -> float:
        cross = (self.longitude * self.meridian.conjugate()).imag
        return abs(cross) / self.height**2


class _Rows(NamedTuple):
    """The measures that take O(1) work per frame, one entry per frame of a
    block (the diameters as one read-only array, whose rows the reports
    share).  They are Python numbers, so that the per-frame arithmetic
    rounds as Python's does: numpy's complex division rounds differently."""

    eids: list[int]  # the edge at infinity
    worst: list[float]  # the largest tangency residual
    spacing: list[float]  # between the two crossing-disk lifts through the cusp
    vertical: list[bool]  # whether both those lifts are vertical
    floor: list[float]  # the face-tangency height: the largest finite radius
    diameters: np.ndarray  # of the finite faces, ascending, then inf
    finite: list[int]  # how many faces are finite


def _rows(block: FrameBlock) -> _Rows:
    """Every frame's O(1) measures, from array operations over the block.

    Only a knotting cusp's longitude walk and horoball-pair search work on
    one frame at a time; the single-frame functions below run this same
    code on a block of one.
    """
    # The residuals first: their transient is the largest, and the block
    # holds the least before the shaded radii and the diameters.
    worst = block.residuals.max(axis=1).tolist()
    radius, disk_r = block.radius, block.disk_radius
    eids = block.normalization["infinity_edge"]
    rows = np.arange(len(block))[:, None]
    lifts = block.nerve.edge_triangles[eids]
    # A lift through the cusp is vertical, its triangle holding both lines,
    # and stands at the x of the triangle's one finite white.
    whites, rows3 = block.nerve.triangle_whites[lifts], rows[:, :, None]
    finite = np.isfinite(radius[rows3, whites])
    x = np.where(finite, block.center[rows3, whites].real, -np.inf).max(axis=2)
    # The radii become the sorted diameters in place.
    diameters = np.concatenate((radius, disk_r), axis=1)
    finite = np.isfinite(diameters)
    floor = np.max(diameters, axis=1, where=finite, initial=0.0).tolist()
    diameters *= 2.0
    diameters[~finite] = np.inf
    diameters.sort(axis=1)
    diameters.flags.writeable = False  # the reports share its rows
    return _Rows(
        eids=eids.tolist(),
        worst=worst,
        spacing=abs(x[:, 1] - x[:, 0]).tolist(),
        vertical=np.isinf(disk_r[rows, lifts]).all(axis=1).tolist(),
        floor=floor,
        diameters=diameters,
        finite=finite.sum(axis=1).tolist(),
    )


def _alone(frame: CirclePacking) -> tuple[FrameBlock, _Rows]:
    """A cusp frame from normalize_at_vertex as a block of one, on the
    frame's arrays, and its rows: what the single-frame functions below
    measure.  Any other packing, the strip packing included, is refused,
    and so is a frame whose lines are not y = 0 and y = 1."""
    norm, (u, v) = frame.normalization, frame.lines
    if norm.get("frame") != "unit-strip":
        raise MeasuringError("packing must be normalized with a cusp at infinity")
    if frame.center[u] != 0 or frame.center[v] != 1j:
        raise MeasuringError("cusp frame lines must be y = 0 and y = 1")
    one = np.zeros(1, dtype=np.intp)
    block = FrameBlock(
        frame.nerve, frame.center[None], frame.radius[None], (one + u, one + v), frame.tol,
        {"infinity_edge": one + norm["infinity_edge"], "frame": norm["frame"]},
    )
    vars(block)["residuals"] = frame.residuals[None]
    return block, _rows(block)


def assemble(frame: CirclePacking) -> CirclePacking:
    """The residual gate of a packing normalized at a cusp: returns the
    frame, which is all that the measuring functions below take."""
    _gate(_alone(frame)[1], 0, frame.tol)
    return frame


def _gate(rows: _Rows, f: int, tol: float) -> None:
    worst, gate = rows.worst[f], 10 * tol
    if not worst <= gate:
        raise ConvergenceError(
            f"assemble: tangency residual {worst:.3e} with edge {rows.eids[f]} at "
            f"infinity exceeds {gate:.3e}; refusing to assemble geometry",
            worst,
        )


def _kappa(frame: CirclePacking, eid):
    """Matched horoball size constant at finite tangencies of the cusp.

    Renormalizing the tangency to infinity with the reflection planes kept
    1 apart turns the cusp horoball of height h into a ball of diameter
    kappa / h; kappa = 1 / (1/(2 r_a) + 1/(2 r_b)) over the two whites
    tangent there (a line adds 0).  eid is an edge id or an array of them.
    """
    a, b = frame.nerve.ends
    r = frame.radius
    return 1.0 / (0.5 / r[a[eid]] + 0.5 / r[b[eid]])


def cusp_lattice(frame: CirclePacking) -> tuple[complex, complex, dict]:
    """Meridian and longitude translations of the cusp at infinity."""
    return _measure(*_alone(frame), 0)[0]


def maximal_cusp(frame: CirclePacking) -> tuple[float, str, list[tuple[complex, float]]]:
    """Height of the maximal cusp horoball about infinity, a witness, and the
    cusp's other horoballs at that height as (tangency point, diameter).

    The horoball expands until it meets a face of the polyhedra or a
    translate of itself; translate sizes come from the matched development
    of the other lifts of the same cusp.
    """
    points, diameters, height, witness = _measure(*_alone(frame), 0)[1]
    return height, witness, list(zip(points.tolist(), diameters.tolist()))


def _measure(block: FrameBlock, rows: _Rows, f: int) -> tuple[
    tuple[complex, complex, dict], tuple[np.ndarray, np.ndarray, float, str]
]:
    """Frame f's lattice (meridian, longitude, info) and its cusp's other
    horoballs (tangency points, diameters, height, witness), the points in
    ascending edge order."""
    if not rows.vertical[f]:
        raise MeasuringError("crossing-disk lift at the cusp is not vertical")
    nerve = block.nerve
    w_inf, eid, best = rows.spacing[f], rows.eids[f], rows.floor[f]
    witness = "face tangency"

    if nerve.edges[eid].kind == "circle":  # no other lift to meet
        sign = nerve.shear_sign[eid - len(nerve.arc_exit)]
        meridian = w_inf + 1j * sign if sign else w_inf
        info = {"rectangles": 1, "shaded_spacing": w_inf}
        return (meridian, 2j, info), (np.empty(0, complex), np.empty(0), best, witness)

    # Knotting strand: the meridian crosses two reflection-plane lifts; the
    # longitude walks the rectangle chain through the crossing-disk faces,
    # leaving the cusp's arc by its larger dart first.  A half-twisted disk
    # shears the chain by its sign.  The walk passes every other lift of
    # the cusp once.
    meridian = 2j
    shear = 0.0
    start = x = nerve.arc_exit[eid]
    walk = [eid]  # arc i is nerve edge i
    while True:
        shear += nerve.shear_sign[x >> 2]
        x, arc = nerve.exits[x]
        if x == start:
            break
        walk.append(arc)
    frame = block[f]
    rest = np.array(walk[1:], dtype=np.intp)
    kap = _kappa(frame, rest)
    # Each rectangle's width: the cusp's own is w_inf; the others are
    # kappa times the spacing of the two crossing-disk faces flanking them.
    disk_r = block.disk_radius[f, nerve.edge_triangles[rest]]
    widths = [w_inf] + (kap * (0.5 / disk_r).sum(axis=1)).tolist()
    longitude = sum(widths) + 1j * shear
    info = {"rectangles": len(walk), "widths": widths}

    # The horoball search, on the walk's edges and kappa in ascending edge order.
    order = np.argsort(rest)
    eids, kap = rest[order], kap[order]
    pts = frame.tangency_points(eids)
    if math.sqrt(kap.max()) > best:
        k = int(np.argmax(kap))
        best = math.sqrt(kap[k])
        witness = f"horoball tangency at edge {eids[k]}"
    shifts = [a * meridian + b * longitude for a in (-1, 0, 1) for b in (-1, 0, 1)]
    best, pair, searched = _pair_search(pts, kap, best, shifts)
    if pair is not None:
        witness = f"horoball pair at edges near {eids[pair[0]]},{eids[pair[1]]}"
    log.debug(
        "height: edge %d at infinity, %d of %d shifts searched (%d pairs), "
        "height %.17g, witness %s",
        eid, searched, len(shifts), searched * len(eids) ** 2, best, witness,
    )
    return (meridian, longitude, info), (pts, kap / best, best, witness)


def _pair_search(
    pts: np.ndarray, kap: np.ndarray, best: float, shifts: list[complex]
) -> tuple[float, tuple[int, int] | None, int]:
    """The highest horoball pair (p_i, p_j + t) over the shifts t, if above
    best: (its height or best, (i, j) or None, the shifts searched).  The
    two balls touch at height sqrt(kappa_i kappa_j) / |p_j + t - p_i|.

    A shift is skipped when a bound shows that no pair across it rises above
    best, nor so above any later best; the kept shifts run in order, so the
    result is the full search's.  Every pair across t is at least apart =
    max(|Re t| - wx, |Im t| - wy) apart, wx and wy the extent of the points,
    so its height is at most max(kappa) / apart: an O(1) test.  A nonzero
    shift that passes it gets a per-point bound.  From i's side the pair is
    at least g_i = max(|Re t| - ex_i, |Im t| - ey_i) apart, ex_i and ey_i
    point i's distance to the points' extremes behind t (x_i - min x for
    Re t > 0), so its height is at most sqrt(max kappa) sqrt(kappa_i) / g_i;
    from j's side the same holds with the extremes ahead of t.  The highest
    pair is below the smaller of the two sides' largest bounds.  The margin
    1e-9 covers the roundoff of the bounds, and slack that of the gaps,
    which the search computes from coordinates as large as |t| plus the
    points' own: without it, points 1e3 from the origin and 1e-12 apart
    across t would be skipped where the full search finds them higher.
    """
    x, y, root = pts.real, pts.imag, np.sqrt(kap)
    # Python floats: the per-shift tests below are scalar arithmetic.
    x0, x1, y0, y1 = map(float, (x.min(), x.max(), y.min(), y.max()))
    wx, wy = x1 - x0, y1 - y0
    top = float(kap.max()) * (1 + 1e-9)
    size = max(-x0, x1) + max(-y0, y1)  # the largest |x| + |y|
    sides = None
    pair, searched = None, 0
    n = len(pts)
    gap, dy, lift = np.empty((n, n)), np.empty((n, n)), np.empty((n, n), dtype=bool)
    for t in shifts:
        ax, ay = abs(t.real), abs(t.imag)
        slack = 1e-12 * (ax + ay + size)
        if (max(ax - wx, ay - wy) - slack) * best > top:
            continue
        if ax or ay:  # shift 0 pairs the points among themselves: no bound
            if sides is None:
                # Each point's distance to min x, max x, min x, then the same
                # in y: i's and j's rows are adjacent for either sign of t.
                lo, hi, low, high = x - x0, x1 - x, y - y0, y1 - y
                sides = np.array((lo, hi, lo, low, high, low))
                cap = root * math.sqrt(top)  # k's pairs are below best beyond cap_k / best
            sx, sy = int(t.real < 0), 3 + int(t.imag < 0)
            g = np.maximum(ax - sides[sx:sx + 2], ay - sides[sy:sy + 2])
            if (g > cap / best + slack).all(axis=1).any():
                continue
        searched += 1
        # x_i - (x_j + Re t): a broadcast copy, then one broadcast operand,
        # where np.subtract.outer would buffer two.
        np.copyto(gap, x[:, None])
        gap -= x + t.real
        np.copyto(dy, y[:, None])
        dy -= y + t.imag
        np.hypot(gap, dy, out=gap)
        gap[np.less(gap, 1e-14, out=lift)] = np.inf  # the lift itself
        gap /= root[:, None]
        gap /= root
        i, j = divmod(int(np.argmin(gap)), n)
        if math.isinf(gap[i, j]):
            continue
        cand = float(math.sqrt(kap[i] * kap[j]) / abs(pts[j] + t - pts[i]))
        if cand > best + 1e-15:
            best, pair = cand, (i, j)
    return best, pair, searched


def cusp_shape(frame: CirclePacking) -> CuspShape:
    return _shape(*_alone(frame), 0)[0]


def _shape(block: FrameBlock, rows: _Rows, f: int) -> tuple[CuspShape, str]:
    """Cusp shape and the witness of its height."""
    (mu, lam, _), (_, _, h, witness) = _measure(block, rows, f)
    if (lam / mu).imag < 0:
        lam = -lam  # orient the modulus into the upper half plane
    cusp = block.nerve.edges[rows.eids[f]].cusp
    return CuspShape(cusp=cusp, meridian=mu, longitude=lam, height=h), witness


# -- high level pipeline --------------------------------------------------------


@dataclass
class CuspReport:
    cusp: str
    kind: str  # "knotting" or "circle"
    shape: CuspShape
    width: float
    witness: str
    diameters: np.ndarray  # read-only, a row of its block's array
    spacing_disk: float

    def __eq__(self, other):  # by value: an array field does not compare as a tuple item
        if not isinstance(other, CuspReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        s = self.shape
        return {
            "cusp": self.cusp,
            "kind": self.kind,
            "height": float(s.height),
            "meridian": [float(s.meridian.real), float(s.meridian.imag)],
            "longitude": [float(s.longitude.real), float(s.longitude.imag)],
            "meridian_length": float(s.meridian_length),
            "longitude_length": float(s.longitude_length),
            "modulus": [float(s.modulus.real), float(s.modulus.imag)],
            "torus_area": float(s.torus_area),
            "reflection_width": float(self.width),
            "witness": self.witness,
            "circle_diameters": self.diameters.tolist(),
            "white_plane_spacing": 1.0,
            "disk_plane_spacing": float(self.spacing_disk),
        }


# (frame, edge) pairs normalized as one block: the working memory of a
# packing's cusps stays near that many elements, not cusps * edges.  A block
# costs mostly fixed numpy overhead, so fewer blocks are faster.  Measuring
# every cusp of chain-121 (123 frames of 363 edges; least of 60 passes, 2-core
# x86-64) takes 7.6 ms in 6 blocks at 8192 and peaks at 0.86 MB traced; 6.0 ms
# and 1.22 MB in 2 (67 + 56 frames) at 24576; 5.7 ms and 1.85 MB in one.
_BLOCK_ELEMENTS = 24576

# Per packing, for as long as it lives: every cusp's report, or its error.
_reports: WeakKeyDictionary = WeakKeyDictionary()


def analyze_cusp(
    al: AugmentedLink,
    cusp: str | None = None,
    tol: float = 1e-12,
    packing: CirclePacking | None = None,
    nerve: Nerve | None = None,
) -> CuspReport:
    """Full pipeline: nerve, packing, normalization and cusp measurement.

    The first call for a given packing (whose own nerve is used) analyses
    all its cusps, in blocks, and keeps their reports (or errors) with it.
    Without a packing, a new one is solved and only the asked cusp is
    measured; nothing is kept, as nobody else holds that packing.
    """
    if packing is not None:
        nerve = packing.nerve
    elif nerve is None:
        nerve = build_nerve(al)
    if cusp is None:
        cusp = (nerve.knotting_cusps or nerve.cusps())[0]
    if cusp not in nerve.cusp_edges:
        raise UnsupportedLinkError(f"unknown cusp {cusp!r}; have {nerve.cusps()}")
    if packing is None:
        reports = _analyze(solve_packing(nerve, tol=tol), [cusp])
    elif packing in _reports:
        reports = _reports[packing]
    else:
        reports = _reports[packing] = _analyze(packing, nerve.cusps())
    report = reports[cusp]
    if isinstance(report, Exception):
        raise report
    return report


def _analyze(packing: CirclePacking, cusps: list[str]) -> dict:
    """The report of each of the given cusps, or the error it met.  A block
    whose normalization fails is redone one frame at a time, so that the
    error stays with its cusp."""
    nerve = packing.nerve
    size = max(1, _BLOCK_ELEMENTS // len(nerve.edges))
    blocks = [cusps[k:k + size] for k in range(0, len(cusps), size)]
    out: dict = {}
    for block in blocks:  # grows by the frames of a failed block
        eids = np.array([nerve.cusp_edges[c][0] for c in block], dtype=np.intp)
        try:
            frames = normalize_at_vertex(packing, eids)
        except ConvergenceError as exc:
            if len(block) > 1:
                blocks += [[c] for c in block]
            else:
                out[block[0]] = exc
            continue
        rows = _rows(frames)
        del frames.residuals  # the gate's, in rows: measuring reads none
        if log.isEnabledFor(logging.DEBUG):
            worst = int(np.argmax(rows.worst))
            circles = sum(nerve.edges[e].kind == "circle" for e in rows.eids)
            log.debug(
                "measure: block of %d frames, %d circle and %d knotting; largest "
                "residual %.2e against its gate %.2e (edge %d)",
                len(block), circles, len(block) - circles, rows.worst[worst],
                10 * packing.tol, rows.eids[worst],
            )
        for f, c in enumerate(block):
            try:
                out[c] = _report(frames, rows, f)
            except (ConvergenceError, MeasuringError) as exc:
                out[c] = exc
        del frames, rows  # before the next block is normalized
    return out


def _report(block: FrameBlock, rows: _Rows, f: int) -> CuspReport:
    _gate(rows, f, block.tol)
    shape, witness = _shape(block, rows, f)
    edge = block.nerve.edges[rows.eids[f]]
    return CuspReport(
        cusp=shape.cusp, kind="circle" if edge.kind == "circle" else "knotting", shape=shape,
        width=1.0 / shape.height, witness=witness,
        diameters=rows.diameters[f, :rows.finite[f]], spacing_disk=rows.spacing[f],
    )


def verify_meridian_bound(
    corpus: list[tuple[str, AugmentedLink]],
    tol: float = 1e-12,
) -> dict:
    """Check every knotting-strand cusp against the strict bounds.

    Meridian lengths must lie in [2, 4) and reflection widths in [1, 2);
    unsupported entries are reported as skipped, not failed.  A corpus that
    measures no cusp, every entry skipped, does not pass.

    The non-strict bounds always hold.  In a unit-strip frame each vertical
    lift's triangle holds both lines and one white tangent to both, of
    radius 1/2.  No finite radius is larger: a finite white lies in the
    strip, and a finite shaded circle is the incircle of its whites'
    centres, no wider than the strip.  So the height is at least 1/2, and
    m = 2 / height <= 4 and w = 1 / height <= 2, with equality exactly when
    a face tangency sets the height; such a cusp fails the strict check.
    """
    entries = []
    all_pass = True
    for name, al in corpus:
        try:
            nerve = build_nerve(al)
            packing = solve_packing(nerve, tol=tol)
        except UnsupportedLinkError as ex:
            entries.append({"name": name, "status": "SKIP", "reason": str(ex)})
            continue
        reports = _analyze(packing, nerve.knotting_cusps)
        for cusp in nerve.knotting_cusps:
            rep = reports[cusp]
            if isinstance(rep, Exception):
                raise rep
            m = float(rep.shape.meridian_length)
            w = float(rep.width)
            ok = bool(2.0 - 1e-9 <= m < 4.0 and 1.0 - 1e-9 <= w < 2.0)
            all_pass = all_pass and ok
            entries.append(
                {
                    "name": name,
                    "cusp": cusp,
                    "status": "PASS" if ok else "FAIL",
                    "meridian_length": m,
                    "reflection_width": w,
                    "meridian_margin": 4.0 - m,
                    "width_margin": 2.0 - w,
                }
            )
    measured = any(e["status"] != "SKIP" for e in entries)
    return {"entries": entries, "all_pass": all_pass and measured}
