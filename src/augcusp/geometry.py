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

from .augment import AugmentedLink
from .errors import ConvergenceError, UnsupportedLinkError
from .mobius import Circline
from .packing import CirclePacking, Nerve, build_nerve, normalize_at_vertex, solve_packing

WDart = tuple[str, int, str]


@dataclass
class HoroballDiagram:
    """Hemisphere faces and cusp data for a packing normalized at a cusp."""

    nerve: Nerve
    packing: CirclePacking
    cusp_at_infinity: str
    infinity_edge: int
    strip_height: float
    # hemispheres: (circline, provenance "plane"/"disk", label)
    hemispheres: list[tuple[Circline, str, object]] = field(default_factory=list)
    horoballs: dict[str, list[tuple[complex, float]]] = field(default_factory=dict)

    def finite_radius_max(self) -> float:
        rs = [c.radius for c, _, _ in self.hemispheres if not c.is_line]
        return max(rs) if rs else 0.0


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
    if worst > gate:
        raise ConvergenceError(
            f"assemble: tangency residual {worst:.3e} with edge {eid} at "
            f"infinity exceeds {gate:.3e}; refusing to assemble geometry",
            worst,
        )
    cusp = nerve.edges[eid].cusp
    u, v = nerve.edge_vertices(eid)
    hy = [packing.whites[u].position(), packing.whites[v].position()]
    hd = HoroballDiagram(
        nerve=nerve,
        packing=packing,
        cusp_at_infinity=cusp,
        infinity_edge=eid,
        strip_height=abs(hy[1] - hy[0]),
    )
    for i, c in enumerate(packing.whites):
        hd.hemispheres.append((c, "plane", i))
    for k, c in enumerate(packing.shaded):
        _, lab, side = nerve.triangles[k]
        hd.hemispheres.append((c, "disk", (lab, side)))
    return hd


def _spacing_terms(c1: Circline, c2: Circline) -> float:
    """1/(2 r1) + 1/(2 r2): the renormalized spacing of two tangent faces."""
    t = 0.0
    for c in (c1, c2):
        if not c.is_line:
            t += 1.0 / (2.0 * c.radius)
    return t


def _cusp_disk_spacing(hd: HoroballDiagram) -> float:
    """Distance between the two vertical crossing-disk lifts through the cusp."""
    lifts = [hd.packing.shaded[ti] for ti in hd.nerve.edge_triangles[hd.infinity_edge]]
    if len(lifts) != 2:
        raise ValueError("expected two crossing-disk lifts through the cusp")
    if not all(c.is_line for c in lifts):
        raise ValueError("crossing-disk lift at the cusp is not vertical")
    return abs(lifts[1].position() - lifts[0].position())


def _kappa(hd: HoroballDiagram, eid: int) -> float:
    """Matched horoball size constant at a finite tangency of the cusp.

    Renormalizing the tangency to infinity with the reflection-plane spacing
    kept at H turns the cusp horoball of height h into a ball of diameter
    kappa / h.
    """
    e = hd.nerve.edges[eid]
    s = _spacing_terms(hd.packing.whites[e.a], hd.packing.whites[e.b])
    return hd.strip_height / s


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
    total = 0.0
    shear = 0.0
    start_arc = e.ref
    _, d0, d1 = nerve.arcs[start_arc]
    pos = (start_arc, d1)  # exit through d1 first
    steps = 0
    widths = []
    while True:
        arc, exit_dart = pos
        widths.append(_arc_width(hd, arc))
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
    total = sum(widths)
    longitude = total + 1j * shear
    info = {"rectangles": steps, "widths": widths}
    return meridian, longitude, info


def _arc_width(hd: HoroballDiagram, arc_id: int) -> float:
    """Width of the cusp rectangle of one ideal vertex, on the matched scale."""
    nerve = hd.nerve
    eid = nerve.arc_edge[arc_id]
    tris = nerve.edge_triangles[eid]
    if len(tris) != 2:
        raise ValueError("arc tangency not flanked by two crossing-disk faces")
    if eid == hd.infinity_edge:
        return _cusp_disk_spacing(hd)
    s_sh = _spacing_terms(hd.packing.shaded[tris[0]], hd.packing.shaded[tris[1]])
    return _kappa(hd, eid) * s_sh


def maximal_cusp(
    hd: HoroballDiagram, cusp: str, lattice: tuple[complex, complex] | None = None
) -> tuple[float, str]:
    """Height of the maximal cusp horoball about infinity, with a witness.

    The horoball expands until it meets a face of the polyhedra or a
    translate of itself; translate sizes come from the matched development
    of the other lifts of the same cusp.  lattice is the cusp's (meridian,
    longitude), when the caller has it from cusp_lattice.
    """
    if cusp != hd.cusp_at_infinity:
        raise ValueError(f"cusp {cusp!r} is not at infinity")
    nerve = hd.nerve
    best = hd.finite_radius_max()
    witness = "face tangency"
    lifts: list[tuple[complex, float]] = []
    for k, e in enumerate(nerve.edges):
        if e.cusp != cusp or k == hd.infinity_edge:
            continue
        p = hd.packing.tangencies[k]
        kap = _kappa(hd, k)
        lifts.append((p, kap))
        if math.sqrt(kap) > best:
            best = math.sqrt(kap)
            witness = f"horoball tangency at edge {k}"
    # Pairwise checks, including nearby lattice translates.
    mu, lam = lattice if lattice is not None else cusp_lattice(hd, cusp)[:2]
    shifts = [
        a * mu + b * lam for a in (-1, 0, 1) for b in (-1, 0, 1)
    ]
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
                if cand > best + 1e-15:
                    best = cand
                    witness = f"horoball pair at edges near {i},{j}"
    # Record the horoballs of this cusp at the maximal height.
    hd.horoballs[cusp] = [(p, kap / best) for p, kap in lifts]
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


def reflection_width(hd: HoroballDiagram, cusp: str) -> float:
    """Horospherical distance between adjacent reflection-surface lifts."""
    h, _ = maximal_cusp(hd, cusp)
    return hd.strip_height / h


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


def analyze_cusp(
    al: AugmentedLink,
    cusp: str | None = None,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    packing: CirclePacking | None = None,
    nerve: Nerve | None = None,
) -> CuspReport:
    """Full pipeline: nerve, packing, normalization and cusp measurement."""
    if nerve is None:
        nerve = build_nerve(al)
    if packing is None:
        packing = solve_packing(nerve, tol=tol, max_iter=max_iter)
    cusps = nerve.cusps()
    if cusp is None:
        knotting = [c for c in cusps if any(
            e.kind == "arc" and e.cusp == c for e in nerve.edges)]
        cusp = knotting[0] if knotting else cusps[0]
    if cusp not in cusps:
        raise UnsupportedLinkError(f"unknown cusp {cusp!r}; have {cusps}")
    eid = min(
        k for k, e in enumerate(nerve.edges) if e.cusp == cusp
    )
    normalized = normalize_at_vertex(packing, eid)
    hd = assemble(normalized, al)
    shape, witness = _measure(hd, cusp)
    width = hd.strip_height / shape.height
    kind = "circle" if nerve.edges[eid].kind == "circle" else "knotting"
    diameters = sorted(
        2.0 * c.radius for c in normalized.whites + normalized.shaded if not c.is_line
    )
    spacing_disk = _cusp_disk_spacing(hd)
    return CuspReport(
        cusp=cusp,
        kind=kind,
        shape=shape,
        width=width,
        witness=witness,
        diameters=diameters,
        spacing_white=hd.strip_height,
        spacing_disk=spacing_disk,
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
        knotting = sorted(
            {e.cusp for e in nerve.edges if e.kind == "arc"}
        )
        for cusp in knotting:
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
