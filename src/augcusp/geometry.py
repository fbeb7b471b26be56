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

import math
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from .augment import AugmentedLink
from .errors import ConvergenceError, UnsupportedLinkError
from .packing import CirclePacking, Nerve, build_nerve, normalize_at_vertex, solve_packing

# After .packing on purpose: without cached bytecode every module is compiled
# at import, and compiling packing (the largest) after numpy is loaded adds
# its compile peak to numpy's memory, about 2 MB more peak RSS.
import numpy as np

WDart = tuple[str, int, str]


@dataclass
class HoroballDiagram:
    """Hemisphere faces and cusp data for a packing normalized at a cusp."""

    nerve: Nerve
    packing: CirclePacking
    cusp_at_infinity: str
    infinity_edge: int
    strip_height: float
    horoballs: dict[str, list[tuple[complex, float]]] = field(default_factory=dict)

    def finite_radius_max(self) -> float:
        rs = np.concatenate((self.packing.radius, self.packing.disks[1]))
        rs = rs[np.isfinite(rs)]
        return float(rs.max()) if rs.size else 0.0


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


def assemble(packing: CirclePacking, al: AugmentedLink) -> HoroballDiagram:
    """Hemispheres over every face of a packing normalized at a cusp."""
    nerve = packing.nerve
    frame = packing.normalization.get("frame")
    if frame not in ("unit-strip", "strip"):
        raise ValueError("packing must be normalized with a cusp at infinity")
    eid = packing.normalization["infinity_edge"]
    gate = packing.tol * max(1.0, packing.scale()) * 10
    worst = packing.max_residual()
    if not worst <= gate:
        raise ConvergenceError(
            f"assemble: tangency residual {worst:.3e} with edge {eid} at "
            f"infinity exceeds {gate:.3e}; refusing to assemble geometry",
            worst,
        )
    return HoroballDiagram(
        nerve=nerve,
        packing=packing,
        cusp_at_infinity=nerve.edges[eid].cusp,
        infinity_edge=eid,
        strip_height=packing.height,
    )


def _cusp_disk_spacing(hd: HoroballDiagram) -> float:
    """Distance between the two vertical crossing-disk lifts through the cusp."""
    center, radius = hd.packing.disks
    lifts = hd.nerve.edge_triangles[hd.infinity_edge]
    if not np.isinf(radius[lifts]).all():
        raise ValueError("crossing-disk lift at the cusp is not vertical")
    return float(abs(center[lifts[1]].real - center[lifts[0]].real))


def _kappa(hd: HoroballDiagram, eid):
    """Matched horoball size constant at finite tangencies of the cusp.

    Renormalizing the tangency to infinity with the reflection-plane spacing
    kept at H turns the cusp horoball of height h into a ball of diameter
    kappa / h; kappa = H / (1/(2 r_a) + 1/(2 r_b)) over the two whites
    tangent there (a line adds 0).  eid is an edge id or an array of them.
    """
    a, b = hd.nerve.ends
    r = hd.packing.radius
    return hd.strip_height / (0.5 / r[a[eid]] + 0.5 / r[b[eid]])


def cusp_lattice(hd: HoroballDiagram, cusp: str) -> tuple[complex, complex, dict]:
    """Meridian and longitude translations of the cusp at infinity."""
    if cusp != hd.cusp_at_infinity:
        raise ValueError(
            f"cusp {cusp!r} is not at infinity (normalize there first)"
        )
    nerve = hd.nerve
    h = hd.strip_height
    eid = hd.infinity_edge
    e = nerve.edges[eid]
    w_inf = _cusp_disk_spacing(hd)

    if e.kind == "circle":
        lab = e.cusp
        shear = h * 1j * nerve.circle_sign.get(lab, 1) if nerve.circle_half[lab] else 0
        meridian = w_inf + shear
        longitude = 2j * h
        info = {"rectangles": 1, "shaded_spacing": w_inf}
        return meridian, longitude, info

    # Knotting strand: the meridian crosses two reflection-plane lifts; the
    # longitude walks the rectangle chain through the crossing-disk faces.
    meridian = 2j * h
    shear = 0.0
    start_arc = e.ref
    _, d0, d1 = nerve.arcs[start_arc]
    pos = (start_arc, d1)  # exit through d1 first
    steps = 0
    walk = []
    while True:
        arc, exit_dart = pos
        walk.append(arc)  # arc i is nerve edge i
        circle, slot, side = exit_dart
        if nerve.circle_half[circle]:
            shear += h * nerve.circle_sign.get(circle, 1)
            partner: WDart = (circle, 1 - slot, "E" if side == "W" else "W")
        else:
            partner = (circle, slot, "E" if side == "W" else "W")
        nxt = nerve.dart_arc[partner]
        _, a0, a1 = nerve.arcs[nxt]
        enter = partner
        leave = a1 if a0 == enter else a0
        pos = (nxt, leave)
        steps += 1
        if pos[0] == start_arc and pos[1] == d1:
            break
        if steps > 4 * len(nerve.arcs) + 4:
            raise RuntimeError("longitude walk did not close")
    # Each rectangle's width: the cusp's own is w_inf; the others are
    # kappa times the spacing of the two crossing-disk faces flanking them.
    rest = np.array(walk[1:], dtype=np.intp)
    disk_r = hd.packing.disks[1][nerve.edge_triangles[rest]]
    widths = [w_inf] + (_kappa(hd, rest) * (0.5 / disk_r).sum(axis=1)).tolist()
    longitude = sum(widths) + 1j * shear
    info = {"rectangles": steps, "widths": widths}
    return meridian, longitude, info


def maximal_cusp(
    hd: HoroballDiagram, cusp: str, lattice: tuple[complex, complex] | None = None
) -> tuple[float, str]:
    """Height of the maximal cusp horoball about infinity, with a witness.

    The horoball expands until it meets a face of the polyhedra or a
    translate of itself; translate sizes come from the matched development
    of the other lifts of the same cusp.  lattice is the cusp's (meridian,
    longitude), when the caller has it from cusp_lattice.  Records the
    cusp's horoballs at that height in hd.horoballs.
    """
    if cusp != hd.cusp_at_infinity:
        raise ValueError(f"cusp {cusp!r} is not at infinity")
    nerve = hd.nerve
    best = hd.finite_radius_max()
    witness = "face tangency"
    eids = np.array(
        [k for k in nerve.cusp_edges[cusp] if k != hd.infinity_edge], dtype=np.intp
    )
    pts = hd.packing.points[eids]
    kap = _kappa(hd, eids)
    if eids.size and math.sqrt(kap.max()) > best:
        k = int(np.argmax(kap))
        best = math.sqrt(kap[k])
        witness = f"horoball tangency at edge {eids[k]}"
    # Pairs (p_i, p_j + t), t a nearby lattice translate: the two balls
    # touch at height sqrt(kappa_i kappa_j) / |p_j + t - p_i|, so the pair
    # of least |p_j + t - p_i| / sqrt(kappa_i kappa_j) is the highest.
    mu, lam = lattice if lattice is not None else cusp_lattice(hd, cusp)[:2]
    shifts = [a * mu + b * lam for a in (-1, 0, 1) for b in (-1, 0, 1)] if eids.size else []
    x, y, root = pts.real, pts.imag, np.sqrt(kap)
    for t in shifts:
        gap = np.subtract.outer(x, x + t.real)
        gap = np.hypot(gap, np.subtract.outer(y, y + t.imag), out=gap)
        gap[gap < 1e-14] = np.inf  # the lift itself
        gap /= root[:, None]
        gap /= root
        i, j = divmod(int(np.argmin(gap)), len(eids))
        if math.isinf(gap[i, j]):
            continue
        cand = math.sqrt(kap[i] * kap[j]) / abs(pts[j] + t - pts[i])
        if cand > best + 1e-15:
            best = cand
            witness = f"horoball pair at edges near {i},{j}"
    hd.horoballs[cusp] = list(zip(pts.tolist(), (kap / best).tolist()))
    return best, witness


def cusp_shape(hd: HoroballDiagram, cusp: str) -> CuspShape:
    return _measure(hd, cusp)[0]


def _measure(hd: HoroballDiagram, cusp: str) -> tuple[CuspShape, str]:
    """Cusp shape and the witness of its height, from one lattice."""
    mu, lam, _ = cusp_lattice(hd, cusp)
    h, witness = maximal_cusp(hd, cusp, (mu, lam))
    if (lam / mu).imag < 0:
        lam = -lam  # orient the modulus into the upper half plane
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
    spacing_white: float
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
            "white_plane_spacing": float(self.spacing_white),
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
    max_iter: int = 100_000,
    packing: CirclePacking | None = None,
    nerve: Nerve | None = None,
) -> CuspReport:
    """Full pipeline: nerve, packing, normalization and cusp measurement.

    The first call for a packing analyses all its cusps, in blocks, and
    keeps their reports (or errors) with it for the later calls.
    """
    if nerve is None:
        nerve = build_nerve(al)
    if packing is None:
        packing = solve_packing(nerve, tol=tol, max_iter=max_iter)
    cusps = nerve.cusps()
    if cusp is None:
        cusp = (nerve.knotting_cusps or cusps)[0]
    if cusp not in cusps:
        raise UnsupportedLinkError(f"unknown cusp {cusp!r}; have {cusps}")
    if packing not in _reports:
        _reports[packing] = _analyze_every_cusp(packing, al)
    report = _reports[packing][cusp]
    if isinstance(report, Exception):
        raise report
    return report


def _analyze_every_cusp(packing: CirclePacking, al: AugmentedLink) -> dict:
    """Every cusp's report, or the error it met.  A block whose
    normalization fails is redone one frame at a time, so that the error
    stays with its cusp."""
    nerve = packing.nerve
    cusps = nerve.cusps()
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
        for c, frame in zip(block, frames):
            try:
                out[c] = _cusp_report(frame, al, c)
            except (ValueError, RuntimeError) as exc:  # what measuring raises
                out[c] = exc
    return out


def _cusp_report(normalized: CirclePacking, al: AugmentedLink, cusp: str) -> CuspReport:
    hd = assemble(normalized, al)
    shape, witness = _measure(hd, cusp)
    width = hd.strip_height / shape.height
    kind = "circle" if hd.nerve.edges[hd.infinity_edge].kind == "circle" else "knotting"
    radii = np.concatenate((normalized.radius, normalized.disks[1]))
    diameters = np.sort(2.0 * radii[np.isfinite(radii)]).tolist()
    return CuspReport(
        cusp=cusp, kind=kind, shape=shape, width=width, witness=witness, diameters=diameters,
        spacing_white=hd.strip_height, spacing_disk=_cusp_disk_spacing(hd),
    )


def verify_meridian_bound(
    corpus: list[tuple[str, AugmentedLink]],
    tol: float = 1e-12,
) -> dict:
    """Check every knotting-strand cusp against the strict bounds.

    Meridian lengths must lie in [2, 4) and reflection widths in [1, 2);
    unsupported entries are reported as skipped, not failed.
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
        for cusp in nerve.knotting_cusps:
            rep = analyze_cusp(al, cusp, tol=tol, packing=packing, nerve=nerve)
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
    return {"entries": entries, "all_pass": all_pass}
