"""Polyhedral nerve of a fully augmented link and its circle packing.

Cutting the complement along the projection plane and the crossing disks
yields two identical right-angled ideal polyhedra.  The faces coming from
the projection plane form a circle packing whose tangency graph (the white
nerve) is computed here combinatorially; the crossing-disk faces are the
circles through the tangency points of each triangular interstice.  Half
twists do not change the polyhedra, only the face gluing, so the nerve is
built from the untwisted companion of the link.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .augment import AugmentedLink
from .diagram import UnionFind
from .errors import ConvergenceError, UnsupportedLinkError

WDart = tuple[str, int, str]  # (circle, slot, "W"/"E")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NerveEdge:
    """A tangency between two white faces: an ideal vertex of the polyhedron."""

    a: int
    b: int
    kind: str  # "arc" (knotting strand) or "circle" (crossing circle)
    cusp: str  # component or circle label
    ref: object = None  # arc id or circle label


@dataclass
class Nerve:
    whites: int
    edges: list[NerveEdge]
    flowers: list[list[int]]  # per white vertex: incident edge ids, cyclic
    triangles: list[tuple[tuple[int, int, int], str, str]]  # (edge ids), circle, side
    infinity_edge: int
    # arc structure for cusp walks: per arc id: (cusp, darts at its two ends)
    arcs: dict[int, tuple[str, WDart, WDart]] = field(default_factory=dict)
    circle_half: dict[str, bool] = field(default_factory=dict)
    circle_sign: dict[str, int] = field(default_factory=dict)
    arc_edge: dict[int, int] = field(default_factory=dict)  # arc id -> edge id
    circle_edge: dict[str, int] = field(default_factory=dict)
    dart_arc: dict[WDart, int] = field(default_factory=dict)

    def edge_vertices(self, eid: int) -> tuple[int, int]:
        e = self.edges[eid]
        return (e.a, e.b)

    def cusps(self) -> list[str]:
        return sorted(self.cusp_edges)

    @cached_property
    def cusp_edges(self) -> dict[str, list[int]]:
        """Per cusp: the ids of its edges, ascending."""
        out: dict[str, list[int]] = {}
        for k, e in enumerate(self.edges):
            out.setdefault(e.cusp, []).append(k)
        return out

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The two whites of every edge, as index arrays."""
        a, b = np.array([(e.a, e.b) for e in self.edges], dtype=np.intp).T
        return a, b

    @cached_property
    def triangle_edges(self) -> np.ndarray:
        """The edge ids of every shaded triangle, one row per triangle."""
        return np.array([eids for eids, _lab, _side in self.triangles], dtype=np.intp)

    @cached_property
    def edge_triangles(self) -> np.ndarray:
        """Per edge id: the two shaded triangles that contain it, in order.

        Each crossing circle has four darts, so k circles give 2k arcs, 3k
        edges and 2k triangles, and every edge lies in exactly two of them.
        """
        order = np.argsort(self.triangle_edges.ravel(), kind="stable")
        return (order // 3).reshape(-1, 2)


# -- companion structure -------------------------------------------------------


def _companion_arcs(al: AugmentedLink):
    """Arc pairing of the untwisted companion plus dart rotations.

    Returns (arcs, rotations) where arcs maps arc id -> (cusp, dart, dart)
    and rotations maps circle -> CCW dart cycle of the bare disk.
    """
    # Arcs of the link as given: consecutive passages along each component.
    raw: list[tuple[str, WDart, WDart]] = []
    for comp, plist in sorted(al.passages.items()):
        n = len(plist)
        if n == 0:
            raise UnsupportedLinkError(
                f"component {comp!r} meets no crossing disk; the diagram is "
                "not sufficiently reduced for explicit geometry"
            )
        for k, p in enumerate(plist):
            q = plist[(k + 1) % n]
            leave: WDart = (p.circle, p.slot, "E" if p.direction == 1 else "W")
            arrive: WDart = (q.circle, q.slot, "W" if q.direction == 1 else "E")
            raw.append((comp, leave, arrive))

    # Untwist: the half-twist crossing east of the disk swaps the two rails,
    # so flattening it exchanges the destinations of the two E-side darts.
    partner: dict[WDart, WDart] = {}
    for comp, x, y in raw:
        partner[x] = y
        partner[y] = x
    for lab in sorted(al.circles):
        c = al.circles[lab]
        if not c.half_twist:
            continue
        if c.strand_count != 2:
            raise UnsupportedLinkError(
                f"circle {lab}: no explicit geometry available for "
                f"{c.strand_count}-strand twist regions"
            )
        a: WDart = (lab, 0, "E")
        b: WDart = (lab, 1, "E")
        x, y = partner[a], partner[b]
        if x == b:  # the two E darts join each other; flattening keeps that
            continue
        partner[a], partner[y] = y, a
        partner[b], partner[x] = x, b

    # Rebuild arcs from the involution; label cusps afterwards.
    arcs: dict[int, tuple[str, WDart, WDart]] = {}
    seen: set[WDart] = set()
    aid = 0
    for comp, x, y in raw:
        for d in (x, y):
            if d in seen:
                continue
            e = partner[d]
            seen.add(d)
            seen.add(e)
            arcs[aid] = ("?", d, e) if d <= e else ("?", e, d)
            aid += 1

    # Cusp orbits: crossing a disk identifies (j, W) with (j, E) for a plain
    # circle and (j, W) with (1 - j, E) under a half-twist shear.
    arc_of: dict[WDart, int] = {}
    for i, (_, d, e) in arcs.items():
        arc_of[d] = i
        arc_of[e] = i
    orbits = UnionFind()
    for lab in sorted(al.circles):
        half = al.circles[lab].half_twist
        for j in (0, 1):
            w: WDart = (lab, j, "W")
            e: WDart = (lab, (1 - j) if half else j, "E")
            orbits.union(arc_of[w], arc_of[e])

    # Label orbits by the true component owning each W dart.
    dart_comp: dict[WDart, str] = {}
    for comp, plist in al.passages.items():
        for p in plist:
            dart_comp[(p.circle, p.slot, "W")] = comp
            dart_comp[(p.circle, p.slot, "E")] = comp
    orbit_label: dict[int, str] = {}
    for i, (_, d, e) in sorted(arcs.items()):
        for dd in (d, e):
            if dd[2] == "W":
                orbit_label.setdefault(orbits.find(i), dart_comp[dd])
    labeled = {}
    for i, (_, d, e) in arcs.items():
        lab = orbit_label.get(orbits.find(i))
        if lab is None:
            raise UnsupportedLinkError("could not label a cusp orbit")
        labeled[i] = (lab, d, e)

    # Companion rotations around the bare disk.  The recorded region walk is
    # the ground truth; a retained half twist swaps the slots of the E darts.
    # When the walk is unavailable (the region swallows its complement) the
    # word is synthesized from the calibrated frame handedness.
    rotations: dict[str, list[WDart]] = {}
    for lab in sorted(al.circles):
        c = al.circles[lab]
        if c.rotation is not None:
            word = list(c.rotation)
            if c.half_twist:
                word = [
                    ((1 - s), side) if side == "E" else (s, side)
                    for s, side in word
                ]
            rotations[lab] = [(lab, s, side) for s, side in word]
        elif c.chirality == 1:
            rotations[lab] = [(lab, 1, "E"), (lab, 1, "W"), (lab, 0, "W"), (lab, 0, "E")]
        else:
            rotations[lab] = [(lab, 0, "E"), (lab, 0, "W"), (lab, 1, "W"), (lab, 1, "E")]
    return labeled, rotations


def build_nerve(al: AugmentedLink, infinity: int | None = None) -> Nerve:
    """Tangency nerve of the white (projection plane) faces.

    Supported inputs are regular fully augmented links: every crossing disk
    meets exactly two strands and there are at least two crossing circles.
    """
    if not al.circles:
        raise UnsupportedLinkError("no crossing circles")
    for lab, c in sorted(al.circles.items()):
        if c.strand_count != 2:
            raise UnsupportedLinkError(
                f"circle {lab} has {c.strand_count} strands: no explicit "
                "geometry available"
            )
    if len(al.circles) < 2:
        raise UnsupportedLinkError(
            "a single twist region does not produce a hyperbolic augmented "
            "link; need at least two crossing circles"
        )

    arcs, rotations = _companion_arcs(al)
    dart_arc: dict[WDart, int] = {}
    for i, (_, d, e) in arcs.items():
        dart_arc[d] = i
        dart_arc[e] = i

    # Face traversal of the collapsed embedded graph: vertices are circles,
    # edges are arcs, rotations as above.  Walking keeps a face on a fixed
    # side: from an arriving dart step to the next dart clockwise in the
    # rotation and leave through its arc.
    def next_in_rotation(d: WDart, shift: int) -> WDart:
        rot = rotations[d[0]]
        return rot[(rot.index(d) + shift) % len(rot)]

    unused: set[tuple[WDart, int]] = set()
    for i, (_, d, e) in arcs.items():
        unused.add((d, i))
        unused.add((e, i))
    faces: list[list[tuple[WDart, int]]] = []
    gap_face: dict[tuple[WDart, WDart], int] = {}
    while unused:
        start = min(unused)
        walk = []
        cur = start
        while True:
            walk.append(cur)
            unused.discard(cur)
            d, i = cur
            _, x, y = arcs[i]
            twin = y if d == x else x
            nxt_d = next_in_rotation(twin, 1)
            gap_face[(twin, nxt_d)] = len(faces)
            cur = (nxt_d, dart_arc[nxt_d])
            if cur == start:
                break
        faces.append(walk)
    whites = len(faces)

    v = len(al.circles)
    e_count = len(arcs)
    if whites != 2 - v + e_count:
        raise UnsupportedLinkError(
            "collapsed diagram is not planar; no polyhedral decomposition"
        )

    face_of_dart: dict[tuple[WDart, int], int] = {}
    for fi, walk in enumerate(faces):
        for item in walk:
            face_of_dart[item] = fi

    # Nerve edges: one per arc (faces on its two sides) and one per circle
    # (the two lateral gaps, between mixed-side dart pairs).
    edges: list[NerveEdge] = []
    arc_edge: dict[int, int] = {}
    for i in sorted(arcs):
        cusp, d, e = arcs[i]
        fa = face_of_dart[(d, i)]
        fb = face_of_dart[(e, i)]
        arc_edge[i] = len(edges)
        edges.append(NerveEdge(min(fa, fb), max(fa, fb), "arc", cusp, i))
    circle_edge: dict[str, int] = {}
    tri_raw: list[tuple[str, str, int]] = []
    for lab in sorted(al.circles):
        rot = rotations[lab]
        lateral = []
        ends = {}
        for k in range(4):
            d1, d2 = rot[k], rot[(k + 1) % 4]
            f = gap_face[(d1, d2)]
            if d1[2] != d2[2]:
                lateral.append(f)
            else:
                ends[d1[2]] = f
        if len(lateral) != 2 or set(ends) != {"W", "E"}:
            raise UnsupportedLinkError(f"circle {lab}: degenerate disk gaps")
        circle_edge[lab] = len(edges)
        edges.append(
            NerveEdge(min(lateral), max(lateral), "circle", lab, lab)
        )
        tri_raw.append((lab, "W", ends["W"]))
        tri_raw.append((lab, "E", ends["E"]))

    # Simplicity: tangent circles meet once, so edge pairs must be unique.
    pairs = [(e.a, e.b) for e in edges]
    if len(set(pairs)) != len(pairs) or any(a == b for a, b in pairs):
        raise UnsupportedLinkError(
            "white faces would be tangent more than once; the diagram is not "
            "prime and twist-reduced (augmented link not hyperbolic)"
        )

    # Incident edges per white vertex, in the cyclic order of the face walk.
    flowers: list[list[int]] = [[] for _ in range(whites)]
    for fi, walk in enumerate(faces):
        for d, i in walk:
            flowers[fi].append(arc_edge[i])
            # A lateral gap follows when the next dart sits on the same
            # circle with mixed sides.
            _, x, y = arcs[i]
            twin = y if d == x else x
            nxt = rotations[twin[0]][(rotations[twin[0]].index(twin) + 1) % 4]
            if nxt[2] != twin[2]:
                flowers[fi].append(circle_edge[twin[0]])

    # Triangles: the circle's lateral tangency plus the arcs at its two
    # same-side darts.
    triangles = []
    for lab, side, _f_end in tri_raw:
        a0 = dart_arc[(lab, 0, side)]
        a1 = dart_arc[(lab, 1, side)]
        triangles.append(
            ((circle_edge[lab], arc_edge[a0], arc_edge[a1]), lab, side)
        )

    tri_vertex_sets = set()
    for (e0, e1, e2), lab, side in triangles:
        vs = frozenset(
            [edges[e0].a, edges[e0].b, edges[e1].a, edges[e1].b, edges[e2].a, edges[e2].b]
        )
        if len(vs) != 3:
            raise UnsupportedLinkError("shaded face is not a triangle")
        tri_vertex_sets.add(vs)

    n = Nerve(
        whites=whites,
        edges=edges,
        flowers=flowers,
        triangles=triangles,
        infinity_edge=infinity if infinity is not None else 0,
        arcs=arcs,
        circle_half={lab: al.circles[lab].half_twist for lab in al.circles},
        circle_sign={lab: al.circles[lab].handedness for lab in al.circles},
        arc_edge=arc_edge,
        circle_edge=circle_edge,
        dart_arc=dart_arc,
    )
    _check_degrees(n)
    return n


def _check_degrees(n: Nerve) -> None:
    for fi, fl in enumerate(n.flowers):
        if len(fl) < 3:
            raise UnsupportedLinkError(
                f"white face {fi} has degree {len(fl)} < 3; degenerate nerve"
            )


# -- the packing solver --------------------------------------------------------


@dataclass(eq=False)
class CirclePacking:
    """Solved packing in a strip frame, as centre and radius arrays.

    The whites `lines` = (u, v) are the horizontal lines y = center[u].imag
    and, above it, y = center[v].imag, of radius inf; every other white is
    the circle of its centre and radius.  The tangency points and the
    shaded circles are derived on first use.
    """

    nerve: Nerve
    center: np.ndarray  # complex, one per white
    radius: np.ndarray  # one per white, inf for the two lines
    lines: tuple[int, int]
    tol: float
    normalization: dict

    @property
    def height(self) -> float:
        """Distance between the two lines."""
        u, v = self.lines
        return float(self.center[v].imag - self.center[u].imag)

    @cached_property
    def points(self) -> np.ndarray:
        """Tangency point of every edge; nan for the two lines (infinity)."""
        a, b = self.nerve.ends
        za, zb, ra, rb = self.center[a], self.center[b], self.radius[a], self.radius[b]
        la, lb = np.isinf(ra), np.isinf(rb)
        with np.errstate(invalid="ignore"):
            p = za + (zb - za) * (ra / (ra + rb))
        p = np.where(la, zb.real + 1j * za.imag, p)  # the foot of b's centre
        p = np.where(lb, za.real + 1j * zb.imag, p)
        p[la & lb] = np.nan
        return p

    @cached_property
    def disks(self) -> tuple[np.ndarray, np.ndarray]:
        """Centres and radii of the shaded circles, parallel to nerve.triangles.

        Each is the circle through its triangle's three tangency points.  The
        two through infinity are vertical lines: radius inf, and their x as
        centre.
        """
        pts = self.points[self.nerve.triangle_edges]
        vertical = np.isnan(pts).any(axis=1)
        center = np.empty(len(pts), dtype=complex)
        radius = np.full(len(pts), np.inf)
        # Both finite points of a vertical line are feet of one circle's centre.
        center[vertical] = np.nanmax(pts[vertical].real, axis=1)
        # Circumcentre of p1, p1 + s, p1 + t: p1 + (|s|^2 t - |t|^2 s) / (conj(s) t - s conj(t)).
        p1, s, t = pts[~vertical, 0], pts[~vertical, 1], pts[~vertical, 2]
        s, t = s - p1, t - p1
        rel = (abs(s) ** 2 * t - abs(t) ** 2 * s) / (2j * (s.conjugate() * t).imag)
        center[~vertical] = p1 + rel
        radius[~vertical] = abs(rel)
        return center, radius

    def residuals(self) -> np.ndarray:
        """Per edge: |distance - sum of radii| of two circles, or of a circle's
        centre to a line and its radius; 0 for the two lines."""
        a, b = self.nerve.ends
        za, zb, ra, rb = self.center[a], self.center[b], self.radius[a], self.radius[b]
        dy = abs(zb.imag - za.imag)
        out = np.where(np.isinf(ra), abs(dy - rb), abs(abs(zb - za) - ra - rb))
        out = np.where(np.isinf(rb), abs(dy - ra), out)
        out[np.isinf(ra) & np.isinf(rb)] = 0.0
        return out

    def max_residual(self) -> float:
        return float(self.residuals().max())

    def scale(self) -> float:
        finite = self.radius[np.isfinite(self.radius)]
        return float(finite.max()) if finite.size else 1.0


def solve_flower_radii(
    flowers: dict[int, list[int]],
    fixed: dict[int, float],
    tol: float = 1e-12,
    max_iter: int = 100_000,
    *,
    stats: dict | None = None,
) -> dict[int, float]:
    """Euclidean circle packing radii by Newton's method on log-radii.

    flowers maps each free vertex to the cyclic list of its petal vertices;
    fixed maps constrained vertices to radii (math.inf marks a line).  The
    angle sums are the gradient of a convex function of the log-radii
    (Colin de Verdiere 1991; Bobenko-Springborn 2004), so Newton's method
    with a backtracking line search on |theta - 2 pi| drives every free
    vertex's angle sum to 2 pi, quadratically once close.  max_iter caps the
    Newton steps.  When every fixed vertex is a line the radii are defined up
    to scale: the Jacobian J is symmetric with J 1 = 0, and the angle errors
    sum to 0 (the angles of the 2n triangles sum to 2 pi n), so the LU solve
    of (J + 1 1^T) du = -err gives the minimum-norm step, which leaves the
    mean log-radius unchanged.
    If stats is given, it receives the Newton steps and the final angle error.
    """
    if max_iter < 1:
        raise ConvergenceError(
            f"solve_flower_radii: max_iter={max_iter} allows no Newton step", math.inf
        )
    free = sorted(set(flowers) - set(fixed))
    if not free:
        return dict(fixed)
    n = len(free)
    # Vertex numbering: free vertices first, then fixed ones.
    index = {v: k for k, v in enumerate(free)}
    rest = sorted(fixed)
    index.update({v: n + k for k, v in enumerate(rest)})
    kfixed = np.array([1.0 / fixed[v] for v in rest])  # curvature, 0 for a line
    corners = []  # (centre, petal, next petal)
    for v in free:
        pet = [index[a] for a in flowers[v]]
        corners += [(index[v], a, b) for a, b in zip(pet, pet[1:] + pet[:1])]
    c, pa, pb = (np.array(col, dtype=np.intp) for col in zip(*corners))
    fa, fb = pa < n, pb < n
    # Jacobian entries in row-major order: the diagonal, then the free petals.
    flat = np.concatenate((c * (n + 1), c[fa] * n + pa[fa], c[fb] * n + pb[fb]))
    target = 2.0 * math.pi
    gauge = 0.0 if kfixed.any() else 1.0  # the all-ones matrix fixes the scale

    def angle_error(u):
        """theta - 2 pi, and per corner: r at the centre, the petals'
        curvatures and tan of half the corner angle (inf between two lines).

        The tangency points of a corner lie on its triangle's incircle, of
        radius rho; the half angle at the centre is atan(rho / r)."""
        k = np.concatenate((np.exp(-u), kfixed))
        r = np.exp(u)[c]
        ka, kb = k[pa], k[pb]
        tan_half = 1.0 / np.sqrt(r * (r * ka * kb + ka + kb))
        theta = np.bincount(c, 2.0 * np.arctan(tan_half), n)
        return theta - target, (r, ka, kb, tan_half)

    def jacobian(r, ka, kb, tan_half):
        """d theta / d log r: a corner angle moves with the log-radius of a
        petal at rho / (r + r_petal), and with its own at minus the sum."""
        t = np.where(np.isfinite(tan_half), tan_half, 0.0)
        da = t * r * ka / (1.0 + r * ka)
        db = t * r * kb / (1.0 + r * kb)
        vals = np.concatenate((-(da + db), da[fa], db[fb]))
        return np.bincount(flat, vals, n * n).reshape(n, n)

    steps = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = np.zeros(n)
        err, parts = angle_error(u)
        while (worst := float(np.max(np.abs(err)))) > tol and steps < max_iter:
            du = np.linalg.solve(jacobian(*parts) + gauge, -err)
            norm = np.linalg.norm(err)
            for lam in 0.5 ** np.arange(40):
                trial, trial_parts = angle_error(u + lam * du)
                if np.linalg.norm(trial) < norm:
                    break
            else:
                break  # no descent left: roundoff floor
            u, err, parts = u + lam * du, trial, trial_parts
            steps += 1
    if not worst <= tol:  # a NaN error or tol fails too
        raise ConvergenceError(
            f"solve_flower_radii: angle error {worst:.3e} at vertex "
            f"{free[int(np.argmax(np.abs(err)))]} after {steps} Newton steps "
            f"(tol={tol})",
            worst,
        )
    if stats is not None:
        stats.update(newton_steps=steps, angle_error=worst)
    radii = dict(fixed)
    radii.update(zip(free, np.exp(u).tolist()))
    return radii


def solve_packing(nerve: Nerve, tol: float = 1e-12, max_iter: int = 100_000) -> CirclePacking:
    """Solve and lay out the packing with the designated tangency at infinity.

    The two white faces of the infinity edge become horizontal lines y = 0
    and y = 2; every other face becomes a circle in the strip, the root face
    (tangent to both lines) of radius 1.  max_iter caps the Newton steps of
    the radii.
    """
    eid = nerve.infinity_edge
    u, v = nerve.edge_vertices(eid)
    petals = {
        i: _neighbor_cycle(nerve, i) for i in range(nerve.whites) if i not in (u, v)
    }
    fixed = {u: math.inf, v: math.inf}
    stats: dict = {}
    radii = solve_flower_radii(
        petals, fixed, tol=max(tol * 1e-2, 1e-15), max_iter=max_iter, stats=stats
    )
    z, r, h = _layout(nerve, u, v, radii)
    z, r, polish = _refine(nerve, z, r, h, u, v, eid, tol)
    packing = CirclePacking(
        nerve, z, r, (u, v), tol, {"infinity_edge": eid, "frame": "strip"}
    )
    worst = packing.max_residual()
    log.info(
        "solve_packing: %d whites, %d Newton steps, angle error %.2e, "
        "%d Gauss-Newton steps on %d unknowns, max relative residual %.2e",
        nerve.whites, stats["newton_steps"], stats["angle_error"],
        polish["steps"], polish["unknowns"], worst / packing.scale(),
    )
    if not worst <= tol * max(1.0, packing.scale()):
        raise ConvergenceError(
            f"solve_packing: tangency residual {worst:.3e} exceeds tol after "
            "refinement",
            worst,
        )
    return packing


def _neighbor_cycle(nerve: Nerve, i: int) -> list[int]:
    out = []
    for eid in nerve.flowers[i]:
        a, b = nerve.edge_vertices(eid)
        out.append(b if a == i else a)
    return out


def _layout(nerve: Nerve, u: int, v: int, radii: dict[int, float]):
    """Place circles from a root tangent to both lines, most-constrained first.

    The radii are rescaled so that the root has radius 1: their scale is
    otherwise arbitrary, and it would move the residual by roundoff.  The
    next circle is the unplaced one with the most placed neighbours, the
    lowest-numbered on ties.  Its two candidate positions (from two placed
    neighbours) are scored against the tangency constraints of all its
    placed neighbours and the non-overlap of the placed circles that sit
    within two places of it in the flower of a neighbouring circle.  (Some
    whites neighbour almost every other, so the whole two-step neighbourhood
    would be most of the packing.)  Returns the centres and radii of the
    whites and the strip height; u and v are the lines y = 0 and y = 2, of
    radius inf.
    """
    neighbors = [_neighbor_cycle(nerve, i) for i in range(nerve.whites)]
    roots = [i for i in range(nerve.whites) if i not in (u, v) and {u, v} <= set(neighbors[i])]
    if not roots:
        raise UnsupportedLinkError("no face tangent to both reflection lines")
    radii = {i: x / radii[roots[0]] for i, x in radii.items()}
    h = 2.0
    centre = {roots[0]: 1j}

    def placed(i: int) -> bool:
        return i in centre or i in (u, v)

    def gap(k: int, z: complex, rw: float) -> float:
        """Signed tangency error of a radius-rw circle at z against white k."""
        if k in (u, v):
            return (z.imag if k == u else h - z.imag) - rw
        return abs(z - centre[k]) - (radii[k] + rw)

    spot = [{j: p for p, j in enumerate(nb)} for nb in neighbors]
    # Unplaced whites keyed (-placed neighbours, white), kept sorted: the
    # front is the next one to place.
    count = {i: sum(map(placed, nb)) for i, nb in enumerate(neighbors) if not placed(i)}
    queue = sorted((-c, i) for i, c in count.items())
    while queue:
        _, w = queue.pop(0)
        del count[w]
        # Circle anchors first: they give the two-solution construction.
        known = sorted(filter(placed, neighbors[w]), key=lambda k: k in (u, v))
        if len(known) < 2:
            raise ConvergenceError("layout stalled: nerve not 2-connected", math.inf)
        a, b = known[:2]
        if a in (u, v):
            raise ConvergenceError(f"no tangent position for face {w}", math.inf)
        rw = radii[w]
        za, la = centre[a], radii[a] + rw
        if b in (u, v):
            y = rw if b == u else h - rw
            dx = math.sqrt(max(0.0, la * la - (y - za.imag) ** 2)) * (1 if b == v else -1)
            cands = [complex(za.real + dx, y), complex(za.real - dx, y)]
        else:
            d = abs(centre[b] - za)
            along = (centre[b] - za) / d
            x = (d * d + la * la - (radii[b] + rw) ** 2) / (2 * d)
            across = math.sqrt(max(0.0, la * la - x * x))
            cands = [za + (x + 1j * across) * along, za + (x - 1j * across) * along]
        near = {
            neighbors[k][(spot[k][w] + s) % len(neighbors[k])]
            for k in neighbors[w] if k not in (u, v) for s in (-2, -1, 1, 2)
        }
        near = [k for k in near if k in centre and k not in known]

        def score(z: complex) -> float:
            fit = [abs(gap(k, z, rw)) for k in known]
            overlap = [-gap(k, z, rw) for k in near]
            return max([0.0] + fit + overlap)

        centre[w] = min(cands, key=score)
        for j in neighbors[w]:
            if j in count:
                del queue[bisect_left(queue, (-count[j], j))]
                count[j] += 1
                insort(queue, (-count[j], j))
    centre.update({u: 0j, v: h * 1j})
    z = np.array([centre[i] for i in range(nerve.whites)])
    r = np.array([radii[i] for i in range(nerve.whites)])
    return z, r, h


def _refine(nerve: Nerve, z, r, h: float, u: int, v: int, skip: int, tol: float):
    """Newton polish of the tangencies, with u and v the lines y = 0, y = h.

    z and r hold the centre and radius of every white (the entries of u and
    v are kept).  The equations are the tangencies of every nerve edge but
    `skip`, the one at infinity, and a gauge row that holds the x of the
    first circle; the nerve triangulates the sphere, so E = 3W - 6 and the
    system is square.  A tangency with a line is linear, r = y above u or
    r = h - y below v: one such row of a circle gives its radius, which is
    substituted, and a second one stays as the row 2y = h.  The unknowns are
    x and y of every circle and r of the circles that touch no line; each
    step is the Newton step of the whole system, solved in fewer unknowns.
    Returns z, r and the polish record: steps, unknowns, and the largest
    tangency error before and after.
    """
    free = np.flatnonzero((np.arange(nerve.whites) != u) & (np.arange(nerve.whites) != v))
    m = len(free)
    slot = np.full(nerve.whites, -1)
    slot[free] = np.arange(m)
    ea, eb = (x[np.arange(len(x)) != skip] for x in nerve.ends)
    sa, sb = slot[ea], slot[eb]
    pair = (sa >= 0) & (sb >= 0)
    ca, cb = sa[pair], sb[pair]
    # Walls: a circle and a line, with the signed distance side * y + off.
    circ = np.where(sa >= 0, sa, sb)[~pair]
    side = np.where((ea == u) | (eb == u), 1.0, -1.0)[~pair]
    off = np.where(side > 0, 0.0, h)
    # One wall per walled circle (any one) gives its radius; the rest stay
    # as rows.
    wall = np.full(m, -1)
    wall[circ] = np.arange(len(circ))
    walled = wall >= 0
    rest = np.ones(len(circ), dtype=bool)
    rest[wall[walled]] = False
    # r = g * s[rcol] + o: its own unknown, or that wall's line in y.
    g, o = np.ones(m), np.zeros(m)
    g[walled], o[walled] = side[wall[walled]], off[wall[walled]]
    own = np.flatnonzero(~walled)
    rcol = m + np.arange(m)
    rcol[own] = 2 * m + np.arange(len(own))
    n = 2 * m + len(own)
    cq = circ[rest]
    q_coef, q_const = side[rest] - g[cq], off[rest] - o[cq]
    rows = np.arange(len(ca)) * n
    flat = np.concatenate((
        rows + ca, rows + cb, rows + m + ca, rows + m + cb, rows + rcol[ca], rows + rcol[cb],
        (len(ca) + np.arange(len(cq))) * n + m + cq, [n * n - n],
    ))
    state = np.concatenate((z[free].real, z[free].imag, r[free][own]))
    x0 = state[0]

    def radii(s):
        return g * s[rcol] + o

    def residual(s):
        x, y, rad = s[:m], s[m:2 * m], radii(s)
        d = np.hypot(x[cb] - x[ca], y[cb] - y[ca])
        return np.concatenate((d - rad[ca] - rad[cb], q_coef * y[cq] + q_const, [s[0] - x0]))

    def jacobian(s):
        dx = s[cb] - s[ca]
        dy = s[m + cb] - s[m + ca]
        d = np.hypot(dx, dy)
        vals = np.concatenate((-dx / d, dx / d, -dy / d, dy / d, -g[ca], -g[cb], q_coef, [1.0]))
        return np.bincount(flat, vals, n * n).reshape(n, n)

    res = residual(state)
    worst = float(np.max(np.abs(res)))
    walls = side * z[free].imag[circ] + off - r[free][circ]
    before = max(worst, float(np.max(np.abs(walls))))
    steps = 0
    while worst > 1e-3 * tol and steps < 8:
        try:
            trial = state + np.linalg.solve(jacobian(state), -res)
        except np.linalg.LinAlgError:
            break
        res_trial = residual(trial)
        if not np.max(np.abs(res_trial)) < worst:
            break
        state, res, worst = trial, res_trial, float(np.max(np.abs(res_trial)))
        steps += 1
    z, r = z.copy(), r.copy()
    z[free] = state[:m] + 1j * state[m:2 * m]
    r[free] = radii(state)
    return z, r, {"steps": steps, "unknowns": n, "before": before, "after": worst}


# -- normalization --------------------------------------------------------------


def normalize_at_vertex(packing: CirclePacking, edge_id: int) -> CirclePacking:
    """Mobius-normalize with the given tangency point at infinity.

    The two white circles tangent there become the lines y = 0 and y = 1;
    the two shaded circles through the point become vertical lines, the
    leftmost at x = 0, with the packing in the right half strip.  One Mobius
    map, w = A + B / (z - p) (or an affine map when p is already infinity),
    carries the whites into this frame, the cusp's own; there the
    tangencies are polished again, which removes the roundoff the map
    amplifies; a frame whose mapped tangency error is already within tol is
    not polished.  The shaded circles follow from the whites.  The polish
    record (steps, unknowns, tangency error before and after; 0 steps on 0
    unknowns when skipped) is kept in normalization["polish"].
    """
    nerve = packing.nerve
    z, r = packing.center, packing.radius
    a, b = nerve.edge_vertices(edge_id)
    p = packing.points[edge_id]
    at_infinity = bool(np.isnan(p))
    # s = 1 / (z - p), or s = z, sends a and b to lines {Re(conj(n) s) = o}:
    # a circle through p to Re((c - p) s) = 1/2, a line through p to the
    # real axis.
    ends = []
    for i in (a, b):
        if math.isinf(r[i]):
            ends.append((1j, z[i].imag if at_infinity else 0.0))
            continue
        c = complex(z[i] - p)
        miss = abs(abs(c) - r[i]) / r[i]
        if miss > 1e-6:
            raise ConvergenceError(
                f"normalize_at_vertex: white {i} misses the tangency point of "
                f"edge {edge_id} by {miss:.3e} of its radius",
                miss,
            )
        ends.append((c.conjugate() / abs(c), 0.5 / abs(c)))
    (na, oa), (nb, ob) = ends
    rot = 1j / na  # turns a's normal to +i
    yb = ob if (rot * nb).imag > 0 else -ob
    (ylo, u), (yhi, v) = sorted([(oa, a), (yb, b)])
    k = 1.0 / (yhi - ylo)
    scale, shift = k * rot, -1j * ylo * k  # w = scale * s + shift
    circles = np.isfinite(r)
    circles[[a, b]] = False
    center = np.zeros_like(z)
    radius = np.full_like(r, np.inf)
    if at_infinity:
        center[circles] = scale * z[circles] + shift
        radius[circles] = k * r[circles]
    else:
        c = z[circles] - p
        den = (abs(c) - r[circles]) * (abs(c) + r[circles])
        center[circles] = scale * c.conjugate() / den + shift
        radius[circles] = k * r[circles] / den
        for i in set(packing.lines) - {a, b}:  # a line off p: a circle through s = 0
            delta = z[i].imag - p.imag
            center[i], radius[i] = scale * (-0.5j / delta) + shift, 0.5 * k / abs(delta)
    center[u], center[v] = 0j, 1j
    # Every radius in the unit strip is at most 1/2, so tol is the gate
    # tol * max(1, scale) that solve_packing meets: polish only above it.
    before = CirclePacking(nerve, center, radius, (u, v), packing.tol, {}).max_residual()
    if before > packing.tol:
        center, radius, polish = _refine(nerve, center, radius, 1.0, u, v, edge_id, packing.tol)
    else:
        polish = {"steps": 0, "unknowns": 0, "before": before, "after": before}
    # The shaded lines through infinity pass through the tangencies of the
    # lines with the two whites that flank the cusp, so they sit at the x of
    # those whites' centres.
    flank = {
        w
        for ti in nerve.edge_triangles[edge_id]
        for e in nerve.triangles[ti][0]
        for w in nerve.edge_vertices(e)
    } - {u, v}
    circles = np.isfinite(radius)
    center[circles] -= min(center[w].real for w in flank)
    if polish["unknowns"]:
        log.debug(
            "normalize_at_vertex: edge %d, %d Gauss-Newton steps on %d unknowns, "
            "tangency error %.2e -> %.2e",
            edge_id, polish["steps"], polish["unknowns"], polish["before"], polish["after"],
        )
    else:
        log.debug(
            "normalize_at_vertex: edge %d, not polished (0 unknowns), mapped "
            "tangency error %.2e within tol %.2e",
            edge_id, polish["before"], packing.tol,
        )
    return CirclePacking(
        nerve, center, radius, (u, v), packing.tol,
        {"infinity_edge": edge_id, "frame": "unit-strip", "polish": polish},
    )
