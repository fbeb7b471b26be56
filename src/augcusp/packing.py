"""Polyhedral nerve of a fully augmented link and its circle packing.

Cutting the complement along the projection plane and the crossing disks
yields two identical right-angled ideal polyhedra.  The faces coming from
the projection plane form a circle packing whose tangency graph (the white
nerve) is computed here combinatorially; the crossing-disk faces are the
incircles of its triangular interstices, each through the three tangency
points of its whites.  Half twists do not change the polyhedra, only the
face gluing, so the nerve is built from the untwisted companion of the link.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .augment import AugmentedLink
from .errors import ConvergenceError, UnsupportedLinkError

log = logging.getLogger(__name__)

# A cap on the Newton steps of the radii; the line search ends a stalled solve.
_MAX_NEWTON_STEPS = 100_000


@dataclass(frozen=True)
class NerveEdge:
    """A tangency between two white faces: an ideal vertex of the polyhedron."""

    a: int
    b: int
    kind: str  # "arc" (knotting strand) or "circle" (crossing circle)
    cusp: str  # component or circle label


@dataclass
class Nerve:
    whites: int
    edges: list[NerveEdge]
    flowers: list[list[int]]  # per white vertex: incident edge ids, cyclic
    triangles: list[tuple[tuple[int, int, int], str, str]]  # (edge ids), circle, side
    infinity_edge: int
    # The cusp walks, on the companion's darts (see _companion): per dart a
    # walk leaves an arc by, the dart it leaves the next arc by, across the
    # disk, and that arc.
    exits: list[tuple[int, int]] = field(default_factory=list)
    arc_exit: list[int] = field(default_factory=list)  # per arc: its larger dart
    shear_sign: list[int] = field(default_factory=list)  # per circle; 0 unless half-twisted

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
    def knotting_cusps(self) -> list[str]:
        """The cusps of the knotting strands, sorted; the others are the
        crossing circles'."""
        return sorted({e.cusp for e in self.edges if e.kind == "arc"})

    @cached_property
    def petals(self) -> list[list[int]]:
        """Per white: the whites across its flower's edges, in flower order."""
        return [
            [self.edges[k].b if self.edges[k].a == i else self.edges[k].a for k in fl]
            for i, fl in enumerate(self.flowers)
        ]

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
    def triangle_whites(self) -> np.ndarray:
        """The three whites of every shaded triangle, one row per triangle:
        the two of its first edge, then the third white of its second."""
        a, b = self.ends
        first, second = self.triangle_edges[:, 0], self.triangle_edges[:, 1]
        wa, wb = a[first], b[first]
        third = np.where((a[second] == wa) | (a[second] == wb), b[second], a[second])
        return np.stack((wa, wb, third), axis=1)

    @cached_property
    def edge_triangles(self) -> np.ndarray:
        """Per edge id: the two shaded triangles that contain it, in order.

        Each crossing circle has four darts, so k circles give 2k arcs, 3k
        edges and 2k triangles, and every edge lies in exactly two of them.
        """
        order = np.argsort(self.triangle_edges.ravel(), kind="stable")
        return (order // 3).reshape(-1, 2)


# -- companion structure -------------------------------------------------------


def _companion(al: AugmentedLink) -> tuple[list[int], list[int], list[int], list[int], list[str]]:
    """The untwisted companion of the link, on integer darts.

    Dart 4k + 2 * slot + (side == "W") is the end of an arc at the given slot
    and side of the k-th crossing circle in label order, so darts sort as
    (label, slot, "E" < "W") would.  Returns, per dart, its arc; its `mate`,
    the arc's other end; its `turn`, the next dart counterclockwise around
    the bare disk; and `across`, the same strand's dart on the other side of
    the disk.  Last comes the cusp of every arc.  Arcs are numbered in the
    order the components, by label, first reach them.
    """
    labels = sorted(al.circles)
    rank = {lab: k for k, lab in enumerate(labels)}
    n = 4 * len(labels)
    mate, comp, order = [0] * n, [""] * n, []
    for c, plist in sorted(al.passages.items()):
        if not plist:
            raise UnsupportedLinkError(
                f"component {c!r} meets no crossing disk; the diagram is "
                "not sufficiently reduced for explicit geometry"
            )
        # Consecutive passages p, q are joined by an arc.  A passage of
        # direction 1 enters its disk on the W side and leaves on the E side.
        for p, q in zip(plist, plist[1:] + plist[:1]):
            x = 4 * rank[p.circle] + 2 * p.slot + (p.direction != 1)
            y = 4 * rank[q.circle] + 2 * q.slot + (q.direction == 1)
            mate[x], mate[y] = y, x
            comp[x] = comp[x ^ 1] = c
            order += (x, y)

    # Untwist: the half-twist crossing east of the disk swaps the two rails,
    # so flattening it exchanges the destinations of the two E darts.
    half = [al.circles[lab].half_twist for lab in labels]
    for k in range(len(labels)):
        a, b = 4 * k, 4 * k + 2
        x, y = mate[a], mate[b]
        if half[k] and x != b:  # E darts joined to each other stay so
            mate[a], mate[y], mate[b], mate[x] = y, a, x, b
    arc, arcs = [-1] * n, 0
    for x in order:
        if arc[x] < 0:
            arc[x] = arc[mate[x]] = arcs
            arcs += 1

    # A cusp is an orbit of x -> mate[across[x]], a strand crossing disk
    # after disk; a half-twist shear crosses to the other slot.  Each is
    # named by the component of its first W dart in arc order.
    across = [x ^ (3 if half[x >> 2] else 1) for x in range(n)]
    cusp: list = [None] * arcs
    for w in sorted(range(1, n, 2), key=lambda x: (arc[x], x)):
        x = w  # walk w's whole orbit, unless its cusp is named already
        while cusp[arc[w]] is None or x != w:
            cusp[arc[x]] = comp[w]
            x = mate[across[x]]
    if None in cusp:
        raise UnsupportedLinkError("could not label a cusp orbit")

    # Rotations around the bare disks.  The recorded region walk is the
    # ground truth; a retained half twist swaps the slots of the E darts.
    # When the walk is unavailable (the region swallows its complement) the
    # word is synthesized from the calibrated frame handedness.
    turn = [0] * n
    for k, lab in enumerate(labels):
        c = al.circles[lab]
        if c.rotation is not None:
            word = [2 * s + (side == "W") for s, side in c.rotation]
            if c.half_twist:
                word = [x if x & 1 else x ^ 2 for x in word]
        elif c.chirality == 1:
            word = [2, 3, 1, 0]
        else:
            word = [0, 1, 3, 2]
        for x, y in zip(word, word[1:] + word[:1]):
            turn[4 * k + x] = 4 * k + y
    return arc, mate, turn, across, cusp


def build_nerve(al: AugmentedLink) -> Nerve:
    """Tangency nerve of the white (projection plane) faces.

    Supported inputs are regular fully augmented links: every crossing disk
    meets exactly two strands and there are at least two crossing circles.
    The tangency at infinity is the edge whose two whites have the largest
    degree sum, the least such id on ties: its whites become the strip's
    lines, so the most petals rest on a line and the fewest circles are left
    for the radii to solve.
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

    arc, mate, turn, across, cusp = _companion(al)
    # Nerve edges: arc i is edge i (faces on its two sides), and the k-th
    # circle's edge (its two lateral gaps) is edge arcs + k.
    arcs = len(cusp)

    # Faces of the collapsed embedded graph (vertices circles, edges arcs):
    # the orbits of x -> turn[mate[x]], each from the least dart not yet
    # walked.  A face's flower lists the edges it meets in walk order: every
    # arc, and a circle's edge after a turn through one of its lateral gaps
    # (between darts of mixed sides).
    face = [-1] * len(arc)
    lateral: list[list[int]] = [[] for _ in al.circles]
    flowers: list[list[int]] = []
    for start in range(len(arc)):
        if face[start] >= 0:
            continue
        flower, x = [], start
        while face[x] < 0:
            face[x] = len(flowers)
            flower.append(arc[x])
            t = mate[x]
            x = turn[t]
            if (x ^ t) & 1:
                flower.append(arcs + (t >> 2))
                lateral[t >> 2].append(len(flowers))
        flowers.append(flower)
    whites = len(flowers)

    if whites != 2 - len(al.circles) + arcs:
        raise UnsupportedLinkError(
            "collapsed diagram is not planar; no polyhedral decomposition"
        )

    arc_exit = [0] * arcs
    for x in range(len(arc)):
        arc_exit[arc[x]] = x  # the larger of the two
    edges = [
        NerveEdge(*sorted((face[x], face[mate[x]])), "arc", cusp[i])
        for i, x in enumerate(arc_exit)
    ]
    # Triangles: the circle's lateral tangency plus the arcs at its two
    # same-side darts.
    triangles = []
    for k, lab in enumerate(sorted(al.circles)):
        if len(lateral[k]) != 2:
            raise UnsupportedLinkError(f"circle {lab}: degenerate disk gaps")
        edges.append(NerveEdge(*sorted(lateral[k]), "circle", lab))
        for side, w in (("W", 4 * k + 1), ("E", 4 * k)):
            triangles.append(((arcs + k, arc[w], arc[w + 2]), lab, side))

    # Simplicity: tangent circles meet once, so edge pairs must be unique.
    pairs = [(e.a, e.b) for e in edges]
    if len(set(pairs)) != len(pairs) or any(a == b for a, b in pairs):
        raise UnsupportedLinkError(
            "white faces would be tangent more than once; the diagram is not "
            "prime and twist-reduced (augmented link not hyperbolic)"
        )
    for eids, _lab, _side in triangles:
        if len({w for k in eids for w in (edges[k].a, edges[k].b)}) != 3:
            raise UnsupportedLinkError("shaded face is not a triangle")

    degree = list(map(len, flowers))
    sums = [degree[e.a] + degree[e.b] for e in edges]
    n = Nerve(
        whites=whites,
        edges=edges,
        flowers=flowers,
        triangles=triangles,
        infinity_edge=sums.index(max(sums)),  # the first, least id, on ties
        exits=[(mate[y], arc[y]) for y in across],
        arc_exit=arc_exit,
        shear_sign=[c.handedness if c.half_twist else 0 for _, c in sorted(al.circles.items())],
    )
    _check_degrees(n)
    return n


def _check_degrees(n: Nerve) -> None:
    for fi, fl in enumerate(n.flowers):
        if len(fl) < 3:
            raise UnsupportedLinkError(
                f"white face {fi} has degree {len(fl)} < 3; degenerate nerve"
            )


# -- double-double arithmetic ----------------------------------------------------
# A value is hi + lo, two float64s, from IEEE +, - and * alone: the same on every
# platform (Dekker 1971; Shewchuk 1997).  The functions take arrays (low parts
# and the second term of a sum may be floats) and work in place on arrays of
# their own; given `out`, two arrays of the result's shape, _dd_add and
# _dd_square write the result there.  So the frame map holds few
# (frames x whites) arrays at once.


def _two_sum(a, b):
    """s + e == a + b exactly, s the rounded sum (Knuth)."""
    s = a + b
    t = s - a
    e = s - t
    np.subtract(a, e, out=e)
    np.subtract(b, t, out=t)
    e += t
    return s, e


def _split(a):
    t = 134217729.0 * a  # 2**27 + 1: Dekker's split, a = hi + lo of 26 bits each
    hi = t - a
    np.subtract(t, hi, out=hi)
    return hi, np.subtract(a, hi, out=t)


def _two_prod(a, b):
    """p + e == a * b exactly, p the rounded product, for factors below 2**996
    whose product's error does not underflow."""
    p, (ah, al), (bh, bl) = a * b, _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(ah, al, bh, bl, out=(None, None)):
    """(ah + al) + (bh + bl), renormalized: its hi is the rounded sum.  The
    arrays of out may be inputs."""
    s, e = _two_sum(ah, bh)
    e += al + bl
    h = np.add(s, e, out=out[0])
    np.subtract(h, s, out=s)
    return h, np.subtract(e, s, out=out[1])


def _dd_square(h, l, out=(None, None)):
    """(h + l)^2, not renormalized: h is split once.  Of the inputs, out may
    hold only l, as its second array."""
    hh, hl = _split(h)
    p = np.multiply(h, h, out=out[0])
    e = hh * hh
    e -= p
    hh *= 2
    hh *= hl
    e += hh
    hl *= hl
    e += hl
    np.multiply(2, h, out=hh)
    hh *= l
    return p, np.add(e, hh, out=out[1])


# -- the packing solver --------------------------------------------------------


@dataclass(eq=False)
class CirclePacking:
    """Solved packing in a strip frame, as centre and radius arrays.

    The whites `lines` = (u, v) are the horizontal lines y = center[u].imag
    and, above it, y = center[v].imag, of radius inf: y = 0 and y = 1 in
    every packing that solve_packing and normalize_at_vertex make.  Every
    other white is the circle of its centre and radius.  The tangency
    points, the shaded circles and the residuals are derived on first use;
    they also derive for a block of frames, arrays with a leading frame axis
    (FrameBlock).  Measuring a cusp reads only the shaded radii
    (disk_radius), and the tangency points of its own edges.
    """

    nerve: Nerve
    center: np.ndarray  # complex, one per white
    radius: np.ndarray  # one per white, inf for the two lines
    lines: tuple[int, int]
    tol: float
    normalization: dict
    lo: tuple[np.ndarray, np.ndarray] | None = None  # a double-double strip's low parts

    def tangency_points(self, eids: np.ndarray | None = None) -> np.ndarray:
        """Tangency point of each given edge, of every edge by default; nan
        where both whites are lines (the point at infinity)."""
        a, b = self.nerve.ends
        if eids is not None:
            a, b = a[eids], b[eids]
        za, zb, ra, rb = (x[..., i] for x in (self.center, self.radius) for i in (a, b))
        la, lb = np.isinf(ra), np.isinf(rb)
        with np.errstate(invalid="ignore"):
            p = za + (zb - za) * (ra / (ra + rb))
        p = np.where(la, zb.real + 1j * za.imag, p)  # the foot of b's centre
        p = np.where(lb, za.real + 1j * zb.imag, p)
        p[la & lb] = np.nan
        return p

    @cached_property
    def points(self) -> np.ndarray:
        """Tangency point of every edge; nan for the two lines (infinity)."""
        return self.tangency_points()

    @cached_property
    def disk_radius(self) -> np.ndarray:
        """Radius of every shaded circle, parallel to nerve.triangles: the
        incircle of its whites' centres, 1 / sqrt(k_a k_b + k_b k_c + k_c k_a)
        for whites of curvature k (0 for a line), so inf, a vertical line,
        when two of them are lines."""
        a, b, c = self.nerve.triangle_whites.T
        with np.errstate(divide="ignore"):
            k = 1.0 / self.radius
            out, kb = k[..., a], k[..., b]
            out *= kb
            kc = k[..., c]
            kb *= kc
            out += kb
            kc *= np.take(k, a, axis=-1, out=kb, mode="clip")  # mode: see residuals
            out += kc
            return np.divide(1.0, np.sqrt(out, out=out), out=out)

    @cached_property
    def disks(self) -> tuple[np.ndarray, np.ndarray]:
        """Centres and radii of the shaded circles, parallel to nerve.triangles.

        The centre is the incentre of the three whites' centres z_i,
        sum (k_j + k_l) k_i z_i / (2 sum k_i k_j), whose denominator is
        2 / disk_radius^2; a line's k z is its unit normal pointing away from
        the packing, -i for the lower line u and +i for v.  A vertical shaded
        line has the x of its one finite white as centre, the x of its
        tangencies with the two lines.
        """
        tri, radius = self.nerve.triangle_whites, self.disk_radius
        with np.errstate(divide="ignore", invalid="ignore"):
            k = 1.0 / self.radius
            kz = self.center * k
            for line, normal in zip(self.lines, (-1j, 1j)):
                np.put_along_axis(kz, np.asarray(line)[..., None], normal, axis=-1)
            k, kz = k[..., tri], kz[..., tri]
            weight = k.sum(axis=-1, keepdims=True) - k  # k_j + k_l
            center = (weight * kz).sum(axis=-1) * (radius * radius / 2)
        foot = np.where(k > 0, self.center[..., tri].real, -np.inf).max(axis=-1)
        return np.where(np.isinf(radius), foot, center), radius

    @cached_property
    def residuals(self) -> np.ndarray:
        """Per edge: |distance - sum of radii| of two circles, or of a circle's
        centre to a line and its radius; 0 for the two lines.

        Built in place, in three arrays of the result's size at most: |zb - za|
        (numpy's complex abs) from one complex array, then |dy| and each
        radius in turn.  np.take writes into out= in place only with a mode
        other than "raise" (which copies it first); the ends are in range,
        so "clip" changes nothing else.
        """
        a, b = self.nerve.ends
        z, r = self.center, self.radius
        dz = np.take(z, b, axis=-1)
        out = np.take(z.real, a, axis=-1)
        np.subtract(dz.real, out, out=dz.real)
        np.subtract(dz.imag, np.take(z.imag, a, axis=-1, out=out, mode="clip"), out=dz.imag)
        np.abs(dz, out=out)
        del dz
        dy, tmp = np.take(z.imag, b, axis=-1), np.take(z.imag, a, axis=-1)
        dy -= tmp
        np.abs(dy, out=dy)
        out -= np.take(r, a, axis=-1, out=tmp, mode="clip")
        la = np.isinf(tmp)
        out -= np.take(r, b, axis=-1, out=tmp, mode="clip")
        lb = np.isinf(tmp)
        np.abs(out, out=out)
        np.subtract(dy, tmp, out=out, where=la)  # a line: |dy - rb|
        np.subtract(dy, np.take(r, a, axis=-1, out=tmp, mode="clip"), out=out, where=lb)
        np.abs(out, out=out, where=la | lb)
        out[la & lb] = 0.0
        return out

    def max_residual(self) -> float:
        return float(self.residuals.max())

    def scale(self) -> float:
        """The largest finite radius: a relative residual is taken against it."""
        finite = self.radius[np.isfinite(self.radius)]
        return float(finite.max()) if finite.size else 1.0


@dataclass(eq=False)
class FrameBlock(CirclePacking):
    """Cusp frames normalized as one block: the arrays have a leading frame
    axis, `lines` holds the two lines' whites of every frame, and the
    normalization record holds an entry per frame ("frame" is shared).
    Indexing by an int gives a frame, a CirclePacking on its block's rows
    (iterating and unpacking go through it): its residuals are the block's
    row while the block holds them, and whatever it derives equals that row
    of the block's, bit for bit."""

    def __len__(self) -> int:
        return len(self.center)

    def __getitem__(self, f: int) -> CirclePacking:
        u, v = self.lines
        norm = self.normalization
        frame = CirclePacking(
            self.nerve, self.center[f], self.radius[f], (int(u[f]), int(v[f])), self.tol,
            {"infinity_edge": int(norm["infinity_edge"][f]), "frame": norm["frame"]},
        )
        if "residuals" in vars(self):
            vars(frame)["residuals"] = self.residuals[f]
        return frame


def solve_flower_radii(
    flowers: dict[int, list[int]],
    fixed: dict[int, float],
    tol: float = 1e-12,
    *,
    stats: dict | None = None,
) -> dict[int, float]:
    """Euclidean circle packing radii by Newton's method on log-radii.

    flowers maps each free vertex to the cyclic list of its petal vertices;
    fixed maps constrained vertices to radii (math.inf marks a line).  The
    angle sums are the gradient of a convex function of the log-radii
    (Colin de Verdiere 1991; Bobenko-Springborn 2004), so Newton's method
    with a backtracking line search on |theta - 2 pi| drives every free
    vertex's angle sum to 2 pi, quadratically once close; a step that finds
    no descent ends the solve.  When every fixed vertex is a line the radii
    are defined up to scale: the Jacobian J is symmetric with J 1 = 0, and
    the angle errors sum to 0 (the angles of the 2n triangles sum to 2 pi n),
    so the LU solve of (J + 1 1^T) du = -err gives the minimum-norm step,
    which leaves the mean log-radius unchanged.
    If stats is given, it receives the Newton steps and the final angle error.
    """
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
        while (worst := float(np.max(np.abs(err)))) > tol and steps < _MAX_NEWTON_STEPS:
            if not steps:  # a solve that starts within tol needs no Jacobian
                # Its entries in row-major order: the diagonal, then the free petals.
                flat = np.concatenate((c * (n + 1), c[fa] * n + pa[fa], c[fb] * n + pb[fb]))
                norm = np.linalg.norm(err)  # later, the accepted trial's
            du = np.linalg.solve(jacobian(*parts) + gauge, -err)
            for lam in 0.5 ** np.arange(40):
                trial_u = u + lam * du
                trial, trial_parts = angle_error(trial_u)
                if (trial_norm := np.linalg.norm(trial)) < norm:
                    break
            else:
                break  # no descent left: roundoff floor
            u, err, parts, norm = trial_u, trial, trial_parts, trial_norm
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


def solve_packing(nerve: Nerve, tol: float = 1e-12) -> CirclePacking:
    """Solve and lay out the packing with the nerve's infinity_edge at infinity.

    The two white faces of the infinity edge (the edge of largest degree
    sum, see build_nerve) become horizontal lines y = 0 and y = 1, as in
    every cusp frame; every other face becomes a circle in the strip, the
    root face (tangent to both lines) of radius 1/2.  The tangencies are
    refined in double-double, and the packing keeps the low parts (lo), so
    that the map to a cusp frame does not magnify float64 roundoff.
    """
    eid = nerve.infinity_edge
    u, v = nerve.edge_vertices(eid)
    petals = {i: p for i, p in enumerate(nerve.petals) if i not in (u, v)}
    fixed = {u: math.inf, v: math.inf}
    stats: dict = {}
    radii = solve_flower_radii(petals, fixed, tol=max(tol * 1e-2, 1e-15), stats=stats)
    z, r, lo, refine = _refine(nerve, *_layout(nerve, u, v, radii))
    packing = CirclePacking(
        nerve, z, r, (u, v), tol, {"infinity_edge": eid, "frame": "strip"}, lo
    )
    worst = packing.max_residual()
    log.info(
        "solve_packing: %d whites, edge %d at infinity (degree sum %d), "
        "%d Newton steps, angle error %.2e, "
        "%d Gauss-Newton steps on %d unknowns in double-double "
        "(tangency error %.2e -> %.2e), max residual %.2e",
        nerve.whites, eid, len(nerve.flowers[u]) + len(nerve.flowers[v]),
        stats["newton_steps"], stats["angle_error"],
        refine["steps"], refine["unknowns"], refine["before"], refine["after"], worst,
    )
    if not worst <= tol:
        raise ConvergenceError(
            f"solve_packing: tangency residual {worst:.3e} exceeds tol after "
            "refinement",
            worst,
        )
    return packing


def _layout(nerve: Nerve, u: int, v: int, radii: dict[int, float]):
    """Place the circles flower by flower from a root tangent to both lines.

    The radii are rescaled so that the root has radius 1/2: their scale is
    otherwise arbitrary, and it would move the residual by roundoff.  The
    root sits at 0.5j between the lines u, y = 0, and v, y = 1.  Each placed
    circle in turn walks its petal cycle from a placed petal and puts every
    unplaced petal where it touches the centre circle and the previous petal,
    on that petal's clockwise side: the flowers all run one way round, so
    this is the one position (Collins-Stephenson 2003).  Returns the centres
    and radii of the whites.
    """
    petals = nerve.petals
    roots = [i for i in range(nerve.whites) if i not in (u, v) and {u, v} <= set(petals[i])]
    if not roots:
        raise UnsupportedLinkError("no face tangent to both reflection lines")
    r = [radii[i] / radii[roots[0]] / 2 for i in range(nerve.whites)]
    centre = {u: 0j, v: 1j, roots[0]: 0.5j}
    order = [roots[0]]
    for w in order:  # grows as petals are placed
        zw, pet = centre[w], petals[w]
        n = len(pet)
        k = next(j for j, p in enumerate(pet) if p in centre)
        for j in range(k + 1, k + n):
            q, p = pet[j % n], pet[(j - 1) % n]
            if q in centre:
                continue
            la = r[w] + r[q]
            if p in (u, v):
                along = -1j if p == u else 1j
                x = (zw.imag if p == u else 1.0 - zw.imag) - r[q]
            else:
                d = abs(centre[p] - zw)
                along = (centre[p] - zw) / d
                x = (d * d + la * la - (r[p] + r[q]) ** 2) / (2 * d)
            centre[q] = zw + (x - 1j * math.sqrt(max(0.0, la * la - x * x))) * along
            order.append(q)
    if len(centre) < nerve.whites:
        lost = min(set(range(nerve.whites)) - set(centre))
        raise UnsupportedLinkError(f"layout: white {lost} is not reached from root {roots[0]}")
    z = np.array([centre[i] for i in range(nerve.whites)])
    return z, np.array(r)


def _refine(nerve: Nerve, z, r):
    """Newton refinement of the strip's tangencies in double-double.

    z and r hold the centre and radius of every white; the whites u and v of
    the nerve's infinity edge are the lines y = 0 and y = 1 (kept).  The
    equations are the tangencies of every nerve edge but the one at
    infinity, and a gauge row that holds the x of the first circle; the
    nerve triangulates the sphere, so E = 3W - 6 and the system is square.
    A tangency with a line is linear, r = y above u or r = 1 - y below v:
    one such row of a circle gives its radius, which is substituted, and a
    second one stays as the row 2y = 1.  The unknowns are x and y of every
    circle and r of the circles that touch no line; each step is the Newton
    step of the whole system, solved in fewer unknowns.  The state is
    double-double, the residual of two circles
    (dx^2 + dy^2 - (r_a + r_b)^2) / (d + r_a + r_b) with its numerator exact
    to ~1e-32, the Jacobian and the step float64 (mixed-precision iterative
    refinement, Higham 2002 ch. 12).  It stops at 2^-100 (the floor is
    ~2e-32 on the ladders: 1 or 2 steps), when a step does not lower the
    residual, or after 8.  Returns z, r, their low parts (lo) and the
    record: steps, unknowns, and the largest tangency error before and after.
    """
    skip = nerve.infinity_edge
    u, v = nerve.edge_vertices(skip)
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
    off = np.where(side > 0, 0.0, 1.0)
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
    state = np.concatenate((z[free].real, z[free].imag, r[free][own])), np.zeros(n)
    x0 = state[0][0]

    def radii(s, sl):
        return _dd_add(g * s[rcol], g * sl[rcol], o, 0.0)

    def residual(s, sl):
        rh, rl = radii(s, sl)
        dx, dy = (_dd_add(s[k + cb], sl[k + cb], -s[k + ca], -sl[k + ca]) for k in (0, m))
        ab = _dd_add(rh[ca], rl[ca], rh[cb], rl[cb])
        h, e = _dd_square(*ab)
        num = _dd_add(*_dd_add(*_dd_square(*dx), *_dd_square(*dy)), -h, -e)[0]
        walls = q_coef * s[m + cq] + q_const + q_coef * sl[m + cq]
        return np.concatenate((num / (np.hypot(dx[0], dy[0]) + ab[0]), walls, [s[0] - x0 + sl[0]]))

    def jacobian(s):
        dx = s[cb] - s[ca]
        dy = s[m + cb] - s[m + ca]
        d = np.hypot(dx, dy)
        vals = np.concatenate((-dx / d, dx / d, -dy / d, dy / d, -g[ca], -g[cb], q_coef, [1.0]))
        return np.bincount(flat, vals, n * n).reshape(n, n)

    res = residual(*state)
    before = worst = float(np.max(np.abs(res)))
    steps = 0
    while worst > 2.0**-100 and steps < 8:
        if not steps:  # the Jacobian pattern, for a state that takes a step
            rows = np.arange(len(ca)) * n
            flat = np.concatenate((
                rows + ca, rows + cb, rows + m + ca, rows + m + cb, rows + rcol[ca],
                rows + rcol[cb], (len(ca) + np.arange(len(cq))) * n + m + cq, [n * n - n],
            ))
        try:
            trial = _dd_add(*state, np.linalg.solve(jacobian(state[0]), -res), 0.0)
        except np.linalg.LinAlgError:
            break
        res_trial = residual(*trial)
        if not np.max(np.abs(res_trial)) < worst:
            break
        state, res, worst = trial, res_trial, float(np.max(np.abs(res_trial)))
        steps += 1
    (s, sl), (z, r), lo = state, (z.copy(), r.copy()), (np.zeros_like(z), np.zeros_like(r))
    z[free], lo[0][free] = s[:m] + 1j * s[m:2 * m], sl[:m] + 1j * sl[m:2 * m]
    r[free], lo[1][free] = radii(s, sl)
    return z, r, lo, {"steps": steps, "unknowns": n, "before": before, "after": worst}


# -- normalization --------------------------------------------------------------


def normalize_at_vertex(
    packing: CirclePacking, edge_id: int | np.ndarray
) -> CirclePacking | list[CirclePacking]:
    """Mobius-normalize with the given tangency point at infinity.

    The two white circles tangent there become the lines y = 0 and y = 1;
    the two shaded circles through the point become vertical lines, the
    leftmost at x = 0, with the packing in the right half strip.  One Mobius
    map, w = A + B / (z - p) (or an affine map when p is already infinity),
    carries the whites into this frame, the cusp's own.  Only the power
    D = |z - p|^2 - r^2 of p cancels near p: p, z - p and D are computed in
    double-double from the packing's hi + lo (hi alone when lo is None) and
    rounded to float64 once, and the rest of the map runs in float64.  The
    shaded circles follow from the whites.  No frame is polished: one that
    the map leaves beyond tol is refused when it is measured.

    edge_id is an edge id, or an array of them for a FrameBlock of those
    frames, (frames x whites) arrays: its frames are the same, bit for bit,
    as one edge at a time.
    """
    nerve = packing.nerve
    z, r = packing.center, packing.radius
    zl, rl = packing.lo or (np.zeros_like(z), np.zeros_like(r))
    eids = np.atleast_1d(np.asarray(edge_id, dtype=np.intp))
    ea, eb = nerve.ends[0][eids], nerve.ends[1][eids]
    la, lb = np.isinf(r[ea]), np.isinf(r[eb])
    at_infinity, frame = la & lb, np.arange(len(eids))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # p = z_a + (z_b - z_a) t, t = r_a / (r_a + r_b), or a line's foot (the
        # circle's x, the line's y), then c = z - p and D = |c|^2 - r^2 of every
        # white.  Rows at infinity, the lines and a and b are set after.
        sh, sl = _dd_add(r[ea], rl[ea], r[eb], rl[eb])
        t = r[ea] / sh
        q, e = _two_prod(t, sh)
        t = t, ((r[ea] - q) - e + rl[ea] - t * sl) / sh
        pc = []  # per coordinate, p and c
        for h, l, foot in ((z.real, zl.real, np.where(la, eb, ea)),
                           (z.imag, zl.imag, np.where(la, ea, eb))):
            d = _dd_add(h[eb], l[eb], -h[ea], -l[ea])
            q, e = _two_prod(d[0], t[0])
            p = _dd_add(h[ea], l[ea], q, e + d[0] * t[1] + d[1] * t[0])
            p = [np.where(la | lb, w[foot], x)[:, None] for w, x in zip((h, l), p)]
            pc.append((p, _dd_add(h, l, -p[0], -p[1])))
        (_, cx), (py, cy) = pc
        # D in place: the squares take the low parts of c, the sums the squares.
        h, e = _dd_square(r, rl)
        power = _dd_square(*cx, out=(np.empty_like(cx[1]), cx[1]))
        power = _dd_add(*power, *_dd_square(*cy, out=(np.empty_like(cy[1]), cy[1])), out=power)
        inv = np.divide(1.0, _dd_add(*power, -h, -e, out=power)[0], out=power[0])
        # s = 1 / (z - p), or s = z, sends a and b to lines {Re(conj(n) s) = o}:
        # a circle through p to Re(c s) = 1/2, a line through p to the real axis.
        ends = []
        for i in (ea, eb):
            line, c = np.isinf(r[i]), cx[0][frame, i] + 1j * cy[0][frame, i]
            dist = abs(c)
            miss = np.where(line, 0.0, abs(dist - r[i]) / r[i])
            if (miss > 1e-6).any():
                f = int(np.argmax(miss > 1e-6))
                raise ConvergenceError(
                    f"normalize_at_vertex: white {i[f]} misses the tangency point of "
                    f"edge {eids[f]} by {float(miss[f]):.3e} of its radius",
                    float(miss[f]),
                )
            offset = np.where(line, np.where(at_infinity, z[i].imag, 0.0), 0.5 / dist)
            ends.append((c, dist, offset))
        (ca, da, oa), (cb, _, ob) = ends
        rot = np.where(la, 1, 1j * ca / da)  # turns a's normal to +i
        yb = np.where((rot * np.where(lb, 1j, cb.conjugate())).imag > 0, ob, -ob)
        low = (oa < yb) | ((oa == yb) & (ea < eb))  # a is the lower line
        u, v = np.where(low, ea, eb), np.where(low, eb, ea)
        ylo, yhi = np.where(low, oa, yb), np.where(low, yb, oa)
        k = 1.0 / (yhi - ylo)
        scale, shift = k * rot, -1j * ylo * k  # w = scale * s + shift
        cx, cy = cx[0], cy[0]
        cx *= inv
        cy *= inv
        radius = k[:, None] * r
        radius *= inv
        b, a = scale[:, None], shift[:, None]
        center = np.empty(cx.shape, dtype=complex)
        re, im = center.real, center.imag
        np.multiply(b.real, cx, out=re)  # inv's array, spent, takes the second products
        re += np.multiply(b.imag, cy, out=inv)
        re += a.real
        np.multiply(b.imag, cx, out=im)
        im -= np.multiply(b.real, cy, out=inv)
        im += a.imag
    rows = np.flatnonzero(at_infinity)
    center[rows] = scale[rows, None] * z + shift[rows, None]
    radius[rows] = k[rows, None] * r
    for i in packing.lines:  # a line off p: a circle through s = 0
        off = np.flatnonzero(~at_infinity & (ea != i) & (eb != i))
        delta = (z[i].imag - py[0][off, 0]) - py[1][off, 0]
        center[off, i] = scale[off] * (-0.5j / delta) + shift[off]
        radius[off, i] = 0.5 * k[off] / abs(delta)
    center[frame, u], center[frame, v] = 0j, 1j
    radius[frame, u] = radius[frame, v] = np.inf
    # The shaded lines through infinity pass through the tangencies of the
    # lines with the two whites that flank the cusp, so they sit at the x of
    # those whites' centres.
    flank = nerve.triangle_whites[nerve.edge_triangles[eids]].reshape(len(eids), -1)
    on_line = (flank == u[:, None]) | (flank == v[:, None])
    x = np.where(on_line, np.inf, center[frame[:, None], flank].real)
    np.subtract(center.real, x.min(axis=1)[:, None], out=center.real, where=np.isfinite(radius))
    block = FrameBlock(
        nerve, center, radius, (u, v), packing.tol,
        {"infinity_edge": eids, "frame": "unit-strip"},
    )
    return block if np.ndim(edge_id) else block[0]
