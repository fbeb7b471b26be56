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
    block (the diameters as one array).  They are Python numbers, so that
    the per-frame arithmetic rounds as Python's does: numpy's complex
    division rounds differently."""

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
    radius, disk_r = block.radius, block.disk_radius
    eids = block.normalization["infinity_edge"]
    rows = np.arange(len(block))[:, None]
    lifts = block.nerve.edge_triangles[eids]
    # A lift through the cusp is vertical, its triangle holding both lines,
    # and stands at the x of the triangle's one finite white.
    whites, rows3 = block.nerve.triangle_whites[lifts], rows[:, :, None]
    finite = np.isfinite(radius[rows3, whites])
    x = np.where(finite, block.center[rows3, whites].real, -np.inf).max(axis=2)
    radii = np.concatenate((radius, disk_r), axis=1)
    finite = np.isfinite(radii)
    return _Rows(
        eids=eids.tolist(),
        worst=block.residuals.max(axis=1).tolist(),
        spacing=abs(x[:, 1] - x[:, 0]).tolist(),
        vertical=np.isinf(disk_r[rows, lifts]).all(axis=1).tolist(),
        floor=np.max(radii, axis=1, where=finite, initial=0.0).tolist(),
        diameters=np.sort(np.where(finite, 2.0 * radii, np.inf), axis=1),
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
    return _lattice(*_alone(frame), 0)


def _lattice(block: FrameBlock, rows: _Rows, f: int) -> tuple[complex, complex, dict]:
    if not rows.vertical[f]:
        raise MeasuringError("crossing-disk lift at the cusp is not vertical")
    nerve = block.nerve
    w_inf, eid = rows.spacing[f], rows.eids[f]

    if nerve.edges[eid].kind == "circle":
        sign = nerve.shear_sign[eid - len(nerve.arc_exit)]
        meridian = w_inf + 1j * sign if sign else w_inf
        longitude = 2j
        info = {"rectangles": 1, "shaded_spacing": w_inf}
        return meridian, longitude, info

    # Knotting strand: the meridian crosses two reflection-plane lifts; the
    # longitude walks the rectangle chain through the crossing-disk faces,
    # leaving the cusp's arc by its larger dart first.  A half-twisted disk
    # shears the chain by its sign.
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
    # Each rectangle's width: the cusp's own is w_inf; the others are
    # kappa times the spacing of the two crossing-disk faces flanking them.
    rest = np.array(walk[1:], dtype=np.intp)
    disk_r = block.disk_radius[f, nerve.edge_triangles[rest]]
    widths = [w_inf] + (_kappa(block[f], rest) * (0.5 / disk_r).sum(axis=1)).tolist()
    longitude = sum(widths) + 1j * shear
    info = {"rectangles": len(walk), "widths": widths}
    return meridian, longitude, info


def maximal_cusp(frame: CirclePacking) -> tuple[float, str, list[tuple[complex, float]]]:
    """Height of the maximal cusp horoball about infinity, a witness, and the
    cusp's other horoballs at that height as (tangency point, diameter).

    The horoball expands until it meets a face of the polyhedra or a
    translate of itself; translate sizes come from the matched development
    of the other lifts of the same cusp.
    """
    block, rows = _alone(frame)
    return _height(block, rows, 0, _lattice(block, rows, 0)[:2])


def _height(
    block: FrameBlock, rows: _Rows, f: int, lattice: tuple[complex, complex]
) -> tuple[float, str, list[tuple[complex, float]]]:
    nerve = block.nerve
    eid = rows.eids[f]
    best = rows.floor[f]
    witness = "face tangency"
    eids = [k for k in nerve.cusp_edges[nerve.edges[eid].cusp] if k != eid]
    if not eids:  # a crossing circle's cusp: no other lift to meet
        return best, witness, []
    frame = block[f]
    eids = np.array(eids, dtype=np.intp)
    pts = frame.tangency_points(eids)
    kap = _kappa(frame, eids)
    if math.sqrt(kap.max()) > best:
        k = int(np.argmax(kap))
        best = math.sqrt(kap[k])
        witness = f"horoball tangency at edge {eids[k]}"
    mu, lam = lattice
    shifts = [a * mu + b * lam for a in (-1, 0, 1) for b in (-1, 0, 1)]
    best, pair, searched = _pair_search(pts, kap, best, shifts)
    if pair is not None:
        witness = f"horoball pair at edges near {eids[pair[0]]},{eids[pair[1]]}"
    log.debug(
        "height: edge %d at infinity, %d of %d shifts searched (%d pairs), "
        "height %.17g, witness %s",
        eid, searched, len(shifts), searched * len(eids) ** 2, best, witness,
    )
    return best, witness, list(zip(pts.tolist(), (kap / best).tolist()))


def _pair_search(
    pts: np.ndarray, kap: np.ndarray, best: float, shifts: list[complex]
) -> tuple[float, tuple[int, int] | None, int]:
    """The highest horoball pair (p_i, p_j + t) over the shifts t, if above
    best: (its height or best, (i, j) or None, the shifts searched).  The
    two balls touch at height sqrt(kappa_i kappa_j) / |p_j + t - p_i|."""
    x, y, root = pts.real, pts.imag, np.sqrt(kap)
    # Every pair across t is at least apart = max(|Re t| - wx, |Im t| - wy)
    # apart, wx and wy the extent of the points, so its height is at most
    # max(kappa) / apart.  A shift with apart * best > max(kappa) thus has
    # no pair above best, nor above any later best: skipping it changes
    # nothing.  The margin 1e-9 covers the roundoff of the bound.
    wx, wy = x.max() - x.min(), y.max() - y.min()
    top = kap.max() * (1 + 1e-9)
    pair, searched = None, 0
    for t in shifts:
        if max(abs(t.real) - wx, abs(t.imag) - wy) * best > top:
            continue
        searched += 1
        gap = np.subtract.outer(x, x + t.real)
        gap = np.hypot(gap, np.subtract.outer(y, y + t.imag), out=gap)
        gap[gap < 1e-14] = np.inf  # the lift itself
        gap /= root[:, None]
        gap /= root
        i, j = divmod(int(np.argmin(gap)), len(pts))
        if math.isinf(gap[i, j]):
            continue
        cand = float(math.sqrt(kap[i] * kap[j]) / abs(pts[j] + t - pts[i]))
        if cand > best + 1e-15:
            best, pair = cand, (i, j)
    return best, pair, searched


def cusp_shape(frame: CirclePacking) -> CuspShape:
    return _shape(*_alone(frame), 0)[0]


def _shape(block: FrameBlock, rows: _Rows, f: int) -> tuple[CuspShape, str]:
    """Cusp shape and the witness of its height, from one lattice."""
    mu, lam, _ = _lattice(block, rows, f)
    h, witness, _ = _height(block, rows, f, (mu, lam))
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
    diameters: list[float]
    spacing_disk: float

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
            "circle_diameters": [float(x) for x in self.diameters],
            "white_plane_spacing": 1.0,
            "disk_plane_spacing": float(self.spacing_disk),
        }


# (frame, edge) pairs normalized as one block: the working memory of a
# packing's cusps stays near that many elements, not cusps * edges.
_BLOCK_ELEMENTS = 8192

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
    return out


def _report(block: FrameBlock, rows: _Rows, f: int) -> CuspReport:
    _gate(rows, f, block.tol)
    shape, witness = _shape(block, rows, f)
    edge = block.nerve.edges[rows.eids[f]]
    return CuspReport(
        cusp=shape.cusp, kind="circle" if edge.kind == "circle" else "knotting", shape=shape,
        width=1.0 / shape.height, witness=witness,
        diameters=rows.diameters[f, :rows.finite[f]].tolist(), spacing_disk=rows.spacing[f],
    )


def verify_meridian_bound(
    corpus: list[tuple[str, AugmentedLink]],
    tol: float = 1e-12,
) -> dict:
    """Check every knotting-strand cusp against the strict bounds.

    Meridian lengths must lie in [2, 4) and reflection widths in [1, 2);
    unsupported entries are reported as skipped, not failed.  A corpus that
    measures no cusp, every entry skipped, does not pass.
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
