import cmath
import dataclasses
import functools
import logging
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_geometry import LADDER, ladder_packings

from augcusp import catalog, geometry
from augcusp.augment import augment
from augcusp.errors import ConvergenceError, UnsupportedLinkError
from augcusp.mobius import Circline, tangency_residual
from augcusp.families import fal_corpus
from augcusp import packing as packing_module
from augcusp.packing import (
    CirclePacking,
    _companion,
    _layout,
    _dd_square,
    _refine,
    _two_prod,
    _two_sum,
    build_nerve,
    normalize_at_vertex,
    solve_flower_radii,
    solve_packing,
)


def descartes_fourth(k1, k2, k3):
    return k1 + k2 + k3 + 2 * math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)


def cross_ratio(z1, z2, z3, z4):
    return (z1 - z3) * (z2 - z4) / ((z1 - z4) * (z2 - z3))


class TestFlowerSolver:
    def test_hexagonal_symmetry_forces_equal_radius(self):
        petals = list(range(1, 7))
        flowers = {0: petals}
        fixed = {p: 1.0 for p in petals}
        radii = solve_flower_radii(flowers, fixed, tol=1e-14)
        assert abs(radii[0] - 1.0) <= 1e-12

    def test_descartes_relation_one_line_two_units(self):
        # A line and two unit circles tangent to it; the inner circle's
        # curvature must satisfy the Descartes relation.
        flowers = {3: [0, 1, 2]}
        fixed = {0: math.inf, 1: 1.0, 2: 1.0}
        stats = {}
        radii = solve_flower_radii(flowers, fixed, tol=1e-14, stats=stats)
        assert 1 <= stats["newton_steps"] <= 20
        assert stats["angle_error"] <= 1e-14
        k4 = 1.0 / radii[3]
        assert abs(k4 - descartes_fourth(0.0, 1.0, 1.0)) <= 1e-10
        assert abs(radii[3] - 0.25) <= 1e-11

    def test_tetrahedral_strip_solves_descartes(self):
        # The K4 nerve of the minimal supported link: two lines and two
        # circles, all pairwise tangent; curvatures satisfy Descartes.
        al, _ = augment(catalog.figure_eight())
        nerve = build_nerve(al)
        packing = solve_packing(nerve, tol=1e-12)
        ks = sorted((1.0 / packing.radius).tolist())
        k1, k2, k3, k4 = ks
        assert abs(k4 - descartes_fourth(k1, k2, k3)) <= 1e-10


FLOATS = st.floats(min_value=-2.0**500, max_value=2.0**500)
# Factors whose product's error cannot underflow: 0, or at least 2**-460.
FACTORS = st.just(0.0) | st.floats(2.0**-460, 2.0**500) | st.floats(-2.0**500, -2.0**-460)


class TestDoubleDouble:
    """The double-double kernel, checked exactly in Fractions."""

    @given(a=FLOATS, b=FLOATS)
    def test_two_sum_is_exact(self, a, b):
        s, e = _two_sum(a, b)
        assert s == a + b
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)

    @given(a=FACTORS, b=FACTORS)
    def test_two_prod_is_exact(self, a, b):
        p, e = _two_prod(a, b)
        assert p == a * b
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)

    @given(h=FACTORS, lo=st.floats(-1.0, 1.0))
    def test_dd_square_is_exact_to_double_double(self, h, lo):
        """(h + l)^2 for l below half an ulp of h: within 2^-100 of it."""
        l = lo * math.ulp(h) / 2
        p, e = _dd_square(h, l)
        exact = (Fraction(h) + Fraction(l)) ** 2
        assert abs(Fraction(p) + Fraction(e) - exact) <= Fraction(2) ** -100 * exact

    @pytest.mark.parametrize("c", [10, 60])
    def test_strip_tangencies_hold_in_fractions(self, c):
        """Every tangency of the pretzel 3xc strip, from hi + lo exactly:
        |dz|^2 - (r_a + r_b)^2 within 1e-28 * 2 (r_a + r_b) for two circles,
        the distance to the line less r within 1e-28 for a circle and a
        line."""
        packing = solve_packing(build_nerve(augment(catalog.pretzel_link([3] * c))[0]))
        (zl, rl), skip = packing.lo, packing.nerve.infinity_edge
        exact = [Fraction(h) + Fraction(l) for h, l in zip(packing.center.tolist(), zl.tolist())
                 for h, l in ((h.real, l.real), (h.imag, l.imag))]
        x, y = exact[0::2], exact[1::2]
        r = [None if math.isinf(h) else Fraction(h) + Fraction(l)
             for h, l in zip(packing.radius.tolist(), rl.tolist())]
        for k, (a, b) in enumerate(zip(*(e.tolist() for e in packing.nerve.ends))):
            if k == skip:
                continue
            if r[a] is None or r[b] is None:
                circle, line = (a, b) if r[b] is None else (b, a)
                assert abs(abs(y[circle] - y[line]) - r[circle]) <= Fraction(1e-28)
            else:
                s = r[a] + r[b]
                gap = (x[b] - x[a]) ** 2 + (y[b] - y[a]) ** 2 - s * s
                assert abs(gap) <= Fraction(1e-28) * 2 * s


def full_refine(nerve, z, r, u, v, skip, tol):
    """Reference polish: Newton on all 3m unknowns (x, y, r of every circle)
    with one row per tangency, the linear wall rows included."""
    free = [i for i in range(nerve.whites) if i not in (u, v)]
    m = len(free)
    pos = {i: k for k, i in enumerate(free)}
    pairs, walls = [], []
    for k, e in enumerate(nerve.edges):
        if k != skip and e.a in pos and e.b in pos:
            pairs.append((pos[e.a], pos[e.b]))
        elif k != skip:
            line, other = (e.a, e.b) if e.b in pos else (e.b, e.a)
            walls.append((pos[other], 1 if line == u else -1))
    (ca, cb), (cw, side) = (np.array(x, dtype=np.intp).T for x in (pairs, walls))
    off = np.where(side < 0, 1.0, 0.0)
    rc = np.arange(len(ca))
    rw = len(ca) + np.arange(len(cw))
    state = np.concatenate((z[free].real, z[free].imag, r[free]))
    x0 = state[0]

    def residual(s):
        x, y, rad = s[:m], s[m:2 * m], s[2 * m:]
        d = np.hypot(x[cb] - x[ca], y[cb] - y[ca])
        return np.concatenate(
            (d - rad[ca] - rad[cb], side * y[cw] + off - rad[cw], [s[0] - x0])
        )

    def jacobian(s):
        dx = s[cb] - s[ca]
        dy = s[m + cb] - s[m + ca]
        d = np.hypot(dx, dy)
        jac = np.zeros((3 * m, 3 * m))
        jac[rc, ca], jac[rc, cb] = -dx / d, dx / d
        jac[rc, m + ca], jac[rc, m + cb] = -dy / d, dy / d
        jac[rc, 2 * m + ca] = jac[rc, 2 * m + cb] = -1.0
        jac[rw, m + cw], jac[rw, 2 * m + cw] = side, -1.0
        jac[-1, 0] = 1.0
        return jac

    res = residual(state)
    worst = float(np.max(np.abs(res)))
    steps = 0
    while worst > 1e-3 * tol and steps < 8:
        trial = state + np.linalg.solve(jacobian(state), -res)
        res_trial = residual(trial)
        if not np.max(np.abs(res_trial)) < worst:
            break
        state, res, worst = trial, res_trial, float(np.max(np.abs(res_trial)))
        steps += 1
    z, r = z.copy(), r.copy()
    z[free] = state[:m] + 1j * state[m:2 * m]
    r[free] = state[2 * m:]
    return z, r


def lstsq_newton(flowers, tol, max_steps=50):
    """Reference: Newton on log-radii for a nerve whose fixed vertices are all
    lines, each step the minimum-norm lstsq solution of J du = -err.  Returns
    the radii and, per step, (J, err)."""
    free = sorted(flowers)
    index = {w: k for k, w in enumerate(free)}
    n = len(free)

    def angles(u):
        r = np.exp(u)
        err, jac = np.full(n, -2 * math.pi), np.zeros((n, n))
        for w in free:
            i, pet = index[w], flowers[w]
            for a, b in zip(pet, pet[1:] + pet[:1]):
                ka, kb = (1 / r[index[x]] if x in index else 0.0 for x in (a, b))
                t = 1 / math.sqrt(r[i] * (r[i] * ka * kb + ka + kb)) if ka or kb else math.inf
                err[i] += 2 * math.atan(t)
                t = 0.0 if math.isinf(t) else t
                for x, k in ((a, ka), (b, kb)):
                    dx = t * r[i] * k / (1 + r[i] * k)
                    jac[i, i] -= dx
                    if x in index:
                        jac[i, index[x]] += dx
        return err, jac

    u, steps = np.zeros(n), []
    err, jac = angles(u)
    while np.max(np.abs(err)) > tol and len(steps) < max_steps:
        steps.append((jac, err))
        du = np.linalg.lstsq(jac, -err, rcond=None)[0]
        for lam in 0.5 ** np.arange(40):
            trial, trial_jac = angles(u + lam * du)
            if np.linalg.norm(trial) < np.linalg.norm(err):
                break
        u, err, jac = u + lam * du, trial, trial_jac
    return dict(zip(free, np.exp(u))), steps


class TestGaugeStep:
    def test_lu_step_is_the_minimum_norm_step(self):
        # Edge 0 at infinity leaves the hubs as circles and the radii to
        # solve; the default edge would make every circle a unit circle.
        al, _ = augment(catalog.two_bridge_chain(13))
        nerve = dataclasses.replace(build_nerve(al), infinity_edge=0)
        u, v = nerve.edge_vertices(nerve.infinity_edge)
        petals = {i: p for i, p in enumerate(nerve.petals) if i not in (u, v)}
        want, steps = lstsq_newton(petals, 1e-14)
        assert len(steps) >= 3
        for jac, err in steps:
            assert np.max(np.abs(jac.sum(axis=1))) <= 1e-12  # J 1 = 0
            assert abs(err.sum()) <= 1e-12  # the angle errors sum to 0
            minimum_norm = np.linalg.lstsq(jac, -err, rcond=None)[0]
            lu = np.linalg.solve(jac + 1.0, -err)
            # The roundoff left in sum(err) moves the LU step by -sum(err) / n^2
            # along 1, which lstsq drops.
            lu += err.sum() / len(err) ** 2
            assert np.max(np.abs(lu - minimum_norm)) <= 1e-12 * np.max(np.abs(minimum_norm))
        got = solve_flower_radii(petals, {u: math.inf, v: math.inf}, tol=1e-14)
        for i, r in want.items():
            assert abs(got[i] - r) <= 1e-12 * r


def reference_layout(nerve, u, v, radii):
    """Reference: the layout that picks each next circle by a max over every
    unplaced white and scores its candidates against every placed circle."""
    neighbors = dict(enumerate(nerve.petals))
    root = next(i for i in neighbors if i not in (u, v) and {u, v} <= set(neighbors[i]))
    radii = {i: x / radii[root] / 2 for i, x in radii.items()}
    centre = {root: 0.5j}

    def placed(i):
        return i in centre or i in (u, v)

    def gap(k, z, rw):
        if k in (u, v):
            return (z.imag if k == u else 1.0 - z.imag) - rw
        return abs(z - centre[k]) - (radii[k] + rw)

    while len(centre) < nerve.whites - 2:
        w = max((i for i in neighbors if not placed(i)),
                key=lambda i: sum(map(placed, neighbors[i])))
        known = sorted(filter(placed, neighbors[w]), key=lambda k: k in (u, v))
        a, b = known[:2]
        if a in (u, v):
            raise ConvergenceError(f"no tangent position for face {w}", math.inf)
        rw = radii[w]
        za, la = centre[a], radii[a] + rw
        if b in (u, v):
            y = rw if b == u else 1.0 - rw
            dx = math.sqrt(max(0.0, la * la - (y - za.imag) ** 2)) * (1 if b == v else -1)
            cands = [complex(za.real + dx, y), complex(za.real - dx, y)]
        else:
            d = abs(centre[b] - za)
            along = (centre[b] - za) / d
            x = (d * d + la * la - (radii[b] + rw) ** 2) / (2 * d)
            across = math.sqrt(max(0.0, la * la - x * x))
            cands = [za + (x + 1j * across) * along, za + (x - 1j * across) * along]
        centre[w] = min(cands, key=lambda z: max(
            [0.0] + [abs(gap(k, z, rw)) for k in known]
            + [-gap(k, z, rw) for k in centre if k not in known]))
    centre.update({u: 0j, v: 1j})
    return np.array([centre[i] for i in range(nerve.whites)])


class TestLayout:
    @pytest.mark.parametrize("d", [
        catalog.two_bridge_chain(21), catalog.two_bridge_chain(41),
        catalog.pretzel_link([3] * 10), catalog.rational_link([2, 3, 2]),
    ])
    def test_flower_layout_places_like_the_scored_scan(self, d):
        """Where the scored reference places, the flower layout puts every
        centre at its centre or at its mirror image -conj(z)."""
        al, _ = augment(d)
        nerve = build_nerve(al)
        compared = 0
        for eid in range(0, len(nerve.edges), 7):
            u, v = nerve.edge_vertices(eid)
            petals = {i: p for i, p in enumerate(nerve.petals) if i not in (u, v)}
            radii = solve_flower_radii(petals, {u: math.inf, v: math.inf})
            got, _r = _layout(nerve, u, v, radii)
            assert got[u] == 0j and got[v] == 1j
            try:
                want = reference_layout(nerve, u, v, radii)
            except ConvergenceError:
                continue
            assert min(
                np.max(np.abs(got - want)), np.max(np.abs(got + want.conjugate()))
            ) <= 1e-9
            compared += 1
        assert compared

    def test_petals_run_clockwise(self):
        """Each white's petals, read in flower order, turn clockwise about
        its centre: the orientation the layout reads from the flowers.  A
        line petal lies in the direction -i (the lower line) or +i; from one
        line to the other the turn is a half turn, through infinity."""
        widest = build_nerve(augment(catalog.two_bridge_chain(21))[0])
        for nerve in (widest, dataclasses.replace(widest, infinity_edge=0)):
            packing = solve_packing(nerve)
            z = packing.center
            u, v = packing.lines
            for w, pet in enumerate(nerve.petals):
                if np.isinf(packing.radius[w]):
                    continue
                way = {p: z[p] - z[w] for p in pet} | {u: -1j, v: 1j}
                for p, q in zip(pet, pet[1:]):
                    turn = way[q] / way[p]
                    assert turn == -1 if {p, q} == {u, v} else turn.imag < 0

    def test_every_infinity_edge_packs(self):
        """Frames whose second circle touches only a line and the root, which
        a layout from two placed neighbours cannot place, pack too."""
        links = [augment(catalog.pretzel_link([3] * c))[0] for c in (4, 6, 10)]
        links += [al for _name, al in fal_corpus(4)]
        frames = 0
        for al in links:
            try:
                edges = len(build_nerve(al).edges)
            except UnsupportedLinkError:
                continue
            for eid in range(edges):
                packing = solve_packing(dataclasses.replace(build_nerve(al), infinity_edge=eid))
                assert packing.max_residual() <= packing.tol
                frames += 1
        assert frames == 174

    def test_unreached_white_is_refused(self):
        al, _ = augment(catalog.two_bridge_chain(5))
        nerve = build_nerve(al)
        u, v = nerve.edge_vertices(nerve.infinity_edge)
        petals = {i: p for i, p in enumerate(nerve.petals) if i not in (u, v)}
        radii = solve_flower_radii(petals, {u: math.inf, v: math.inf})
        cut = dataclasses.replace(nerve, whites=nerve.whites + 1, flowers=nerve.flowers + [[]])
        radii[nerve.whites] = 1.0
        with pytest.raises(UnsupportedLinkError, match=f"white {nerve.whites} is not reached"):
            _layout(cut, u, v, radii)


def witness_height(frame, witness):
    """The height that the named witness reaches in a cusp frame: the floor
    of a face tangency, sqrt(kappa) of a horoball tangency, or the highest
    of a horoball pair over the nine lattice shifts the search tries."""
    if witness == "face tangency":
        return geometry._alone(frame)[1].floor[0]
    eids = [int(k) for k in re.findall(r"\d+", witness)]
    kap = geometry._kappa(frame, np.array(eids))
    if witness.startswith("horoball tangency at edge "):
        return math.sqrt(kap[0])
    assert witness.startswith("horoball pair at edges near ")
    p, q = frame.tangency_points(np.array(eids))
    mu, lam, _ = geometry.cusp_lattice(frame)
    gaps = [abs(q + a * mu + b * lam - p) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    return math.sqrt(kap[0] * kap[1]) / min(g for g in gaps if g >= 1e-14)


class TestInfinityEdge:
    """build_nerve puts the edge of largest degree sum at infinity."""

    def test_default_edge_has_the_largest_degree_sum_and_least_id(self):
        links = [augment(d)[0] for d in (
            catalog.two_bridge_chain(5), catalog.two_bridge_chain(13),
            catalog.pretzel_link([3] * 10), catalog.pretzel_link([5, 4, 3, 2]),
            catalog.rational_link([2, 2, 2]),
        )] + [al for _name, al in fal_corpus(4)]
        nerves = ties = moved = 0
        for al in links:
            try:
                nerve = build_nerve(al)
            except UnsupportedLinkError:
                continue
            sums = [len(nerve.flowers[e.a]) + len(nerve.flowers[e.b]) for e in nerve.edges]
            widest = [k for k, s in enumerate(sums) if s == max(sums)]
            assert nerve.infinity_edge == widest[0]
            nerves += 1
            ties += len(widest) > 1
            moved += widest[0] != 0
        assert nerves >= 10 and ties and moved

    def test_an_explicit_edge_wins(self):
        al, _ = augment(catalog.two_bridge_chain(13))
        widest = build_nerve(al).infinity_edge
        for eid in {0, 5, widest - 1}:
            nerve = dataclasses.replace(build_nerve(al), infinity_edge=eid)
            assert nerve.infinity_edge == eid != widest
            packing = solve_packing(nerve)
            assert packing.lines == nerve.edge_vertices(eid)
            assert packing.normalization["infinity_edge"] == eid

    def test_pretzels_keep_edge_0(self):
        for c in range(10, 61):
            al, _ = augment(catalog.pretzel_link([3] * c))
            nerve = build_nerve(al)
            assert nerve.infinity_edge == 0
            got = geometry._analyze(solve_packing(nerve), nerve.cusps())
            want = geometry._analyze(
                solve_packing(dataclasses.replace(nerve, infinity_edge=0)), nerve.cusps()
            )
            assert [r.to_dict() for r in got.values()] == [r.to_dict() for r in want.values()]

    @pytest.mark.parametrize("k", [5, 21, 61])
    def test_chain_strip_solves_with_no_steps(self, k, caplog):
        """The hubs become the lines and the strip equal circles of radius
        1/2: no radii Newton step, no Gauss-Newton step, no residual.  The
        reports agree with edge 0's to 1e-11 relative, and a witness differs
        only where the other frame's witness reaches the same height."""
        al, _ = augment(catalog.two_bridge_chain(k))
        nerve = build_nerve(al)
        with caplog.at_level(logging.INFO, logger="augcusp"):
            packing = solve_packing(nerve)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("solve_packing:")]
        assert record.levelno == logging.INFO
        found = re.search(
            r"edge (\d+) at infinity \(degree sum (\d+)\), 0 Newton steps, .*, "
            r"0 Gauss-Newton steps on ", record.getMessage(),
        )
        assert found, record.getMessage()
        assert (int(found[1]), int(found[2])) == (nerve.infinity_edge, 2 * (k + 1))
        assert packing.max_residual() == 0
        finite = np.isfinite(packing.radius)
        assert np.all(packing.radius[finite] == 0.5)

        reference = solve_packing(dataclasses.replace(nerve, infinity_edge=0))
        got = geometry._analyze(packing, nerve.cusps())
        want = geometry._analyze(reference, nerve.cusps())
        for cusp in nerve.cusps():
            g, w = got[cusp].to_dict(), want[cusp].to_dict()
            assert g.keys() == w.keys()
            for key in g:
                if key == "witness" or isinstance(g[key], str):
                    continue
                a, b = np.atleast_1d(g[key]), np.atleast_1d(w[key])
                assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b), (cusp, key)
            assert g["cusp"] == w["cusp"] and g["kind"] == w["kind"]
            if g["witness"] != w["witness"]:
                frame = normalize_at_vertex(reference, nerve.cusp_edges[cusp][0])
                height = witness_height(frame, g["witness"])
                assert abs(height - w["height"]) <= 1e-11 * w["height"], (cusp, g["witness"])


class TestNanTolerance:
    """Every gate fails closed: a NaN tolerance admits no residual."""

    def test_flower_radii(self):
        with pytest.raises(ConvergenceError):
            solve_flower_radii({3: [0, 1, 2]}, {0: math.inf, 1: 1.0, 2: 1.0}, tol=math.nan)

    def test_solve_packing(self):
        al, _ = augment(catalog.two_bridge_chain(5))
        with pytest.raises(ConvergenceError):
            solve_packing(build_nerve(al), tol=math.nan)

    def test_assemble(self):
        al, _ = augment(catalog.two_bridge_chain(5))
        nerve = build_nerve(al)
        norm = normalize_at_vertex(solve_packing(nerve), 0)
        geometry.assemble(norm)
        with pytest.raises(ConvergenceError):
            geometry.assemble(dataclasses.replace(norm, tol=math.nan))


class TestCentreRadius:
    def test_circle_keeps_its_radius(self):
        assert Circline.circle(1 + 1j, 4e-5).radius == 4e-5
        assert Circline.circle(1 + 1j, 4e-5).center == 1 + 1j

    def test_small_tangent_circles_have_no_residual(self):
        # |d|^2 - r^2 cancels at this size: (a, b, d) alone loses ~1e-12.
        z = 1.0 + 1.0j
        c1 = Circline.circle(z, 4e-5)
        c2 = Circline.circle(z + 8e-5j, 4e-5)
        assert tangency_residual(c1, c2) <= 1e-16

    def test_wall_elimination_gives_the_full_newton_solution(self):
        # Edge 0 at infinity: with the default edge the layout is exact.
        al, _ = augment(catalog.two_bridge_chain(13))
        nerve = dataclasses.replace(build_nerve(al), infinity_edge=0)
        eid = nerve.infinity_edge
        u, v = nerve.edge_vertices(eid)
        petals = {i: p for i, p in enumerate(nerve.petals) if i not in (u, v)}
        radii = solve_flower_radii(petals, {u: math.inf, v: math.inf}, tol=1e-4)
        z, r = _layout(nerve, u, v, radii)
        got_z, got_r, _lo, refine = _refine(nerve, z, r)
        want_z, want_r = full_refine(nerve, z, r, u, v, eid, 1e-12)
        assert refine["steps"] >= 2  # from a layout of inexact radii
        assert refine["unknowns"] < 3 * (nerve.whites - 2)
        assert np.max(np.abs(got_z - want_z)) <= 1e-14
        free = np.isfinite(want_r)
        assert np.max(np.abs(got_r[free] - want_r[free])) <= 1e-14


def reference_flowers(al, nerve):
    """Reference face walk on the integer companion: each face starts from
    the least dart of any face not yet walked, found by a scan of every
    remaining dart.  A face's flower lists, in walk order, the edge of every
    arc it walks (arc i is edge i) and the circle's edge after each turn
    through a lateral gap (between darts of mixed sides), looked up by its
    cusp."""
    arc, mate, turn, _across, _cusp = _companion(al)
    labels = sorted(al.circles)
    circle_edge = {e.cusp: k for k, e in enumerate(nerve.edges) if e.kind == "circle"}
    unused = set(range(len(arc)))
    flowers = []
    while unused:
        start = cur = min(unused)
        flower = []
        while True:
            unused.discard(cur)
            flower.append(arc[cur])
            twin = mate[cur]
            cur = turn[twin]
            if (cur ^ twin) & 1:
                flower.append(circle_edge[labels[twin >> 2]])
            if cur == start:
                break
        flowers.append(flower)
    return flowers


LADDERS = [catalog.two_bridge_chain(k) for k in (5, 9, 13, 21, 31, 41, 61, 81, 121)] + [
    catalog.pretzel_link([3] * c) for c in (10, 20, 30, 40, 60)
]


class TestNerve:
    def test_faces_are_numbered_as_the_least_dart_scan_numbers_them(self):
        links = [augment(d)[0] for d in LADDERS] + [al for _name, al in fal_corpus(4)]
        compared = 0
        for al in links:
            try:
                nerve = build_nerve(al)
            except UnsupportedLinkError:
                continue
            assert nerve.flowers == reference_flowers(al, nerve)
            # Arc i is edge i; the circles' edges follow in label order.
            arcs = [k for k, e in enumerate(nerve.edges) if e.kind == "arc"]
            circles = [e.cusp for e in nerve.edges if e.kind == "circle"]
            assert arcs == list(range(len(arcs))) and circles == sorted(al.circles)
            assert [e.kind for e in nerve.edges] == ["arc"] * len(arcs) + ["circle"] * len(circles)
            compared += 1
        assert compared >= len(LADDERS) + 5

    def test_petals_are_the_whites_across_the_flower(self):
        al, _ = augment(catalog.two_bridge_chain(13))
        nerve = build_nerve(al)
        for i, (flower, petals) in enumerate(zip(nerve.flowers, nerve.petals)):
            assert [{i, p} for p in petals] == [set(nerve.edge_vertices(k)) for k in flower]

    def test_borromean_nerve_is_tetrahedral(self):
        al, _ = augment(catalog.figure_eight())
        n = build_nerve(al)
        assert n.whites == 4
        assert len(n.edges) == 6
        assert len(n.triangles) == 4
        degrees = [len(fl) for fl in n.flowers]
        assert degrees == [3, 3, 3, 3]

    def test_family_parent_nerve_counts(self):
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        n = build_nerve(al)
        assert n.whites == 5
        assert len(n.edges) == 9
        assert len(n.triangles) == 6

    def test_interior_degree_at_least_three(self):
        for d in (catalog.rational_link([2] * 5), catalog.pretzel_link([3, 3, 3])):
            al, _ = augment(d)
            n = build_nerve(al)
            assert all(len(fl) >= 3 for fl in n.flowers)

    def test_generalized_strands_rejected(self):
        from augcusp.families import gen_longitude_family

        al = gen_longitude_family(1)
        with pytest.raises(UnsupportedLinkError):
            build_nerve(al)

    def test_single_circle_rejected(self):
        al, _ = augment(catalog.trefoil())
        with pytest.raises(UnsupportedLinkError):
            build_nerve(al)

    def test_hairpin_circle_rejected(self):
        # The closure of this chain diagram lets a crossing circle slide off.
        al, _ = augment(catalog.rational_link([2, 2]))
        with pytest.raises(UnsupportedLinkError):
            build_nerve(al)


class TestPackingInvariants:
    def test_residuals_within_tolerance(self):
        for vec in ([2, 2], [2, 2, 2], [2] * 5):
            d = catalog.figure_eight() if vec == [2, 2] else catalog.rational_link(vec)
            al, _ = augment(d)
            packing = solve_packing(build_nerve(al), tol=1e-12)
            assert packing.max_residual() <= 1e-12

    def test_angle_sums(self):
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = build_nerve(al)
        packing = solve_packing(nerve, tol=1e-12)
        u, v = nerve.edge_vertices(nerve.infinity_edge)
        r = packing.radius.tolist()
        for i in range(nerve.whites):
            if i in (u, v):
                continue
            total = 0.0
            nb = []
            for eid in nerve.flowers[i]:
                a, b = nerve.edge_vertices(eid)
                nb.append(b if a == i else a)
            k = len(nb)
            for j in range(k):
                ra, rb = r[nb[j]], r[nb[(j + 1) % k]]
                ta = 1.0 if math.isinf(ra) else ra / (r[i] + ra)
                tb = 1.0 if math.isinf(rb) else rb / (r[i] + rb)
                total += 2 * math.asin(math.sqrt(ta * tb))
            assert abs(total - 2 * math.pi) <= 1e-9

    def test_disjoint_interiors(self):
        al, _ = augment(catalog.rational_link([2] * 5))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        adj = {frozenset(nerve.edge_vertices(k)) for k in range(len(nerve.edges))}
        z, r = packing.center.tolist(), packing.radius.tolist()
        for i in range(nerve.whites):
            for j in range(i + 1, nerve.whites):
                if math.isinf(r[i]) or math.isinf(r[j]):
                    continue
                d = abs(z[i] - z[j])
                if frozenset((i, j)) in adj:
                    assert abs(d - (r[i] + r[j])) <= 1e-9
                else:
                    assert d >= r[i] + r[j] - 1e-9

    def test_shaded_circles_pass_through_tangencies(self):
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        centers, radii = packing.disks
        for k, (eids, lab, side) in enumerate(nerve.triangles):
            c, r = complex(centers[k]), float(radii[k])
            for z in packing.points[list(eids)].tolist():
                if cmath.isnan(z):
                    continue
                if math.isinf(r):  # the vertical line x = c.real
                    assert abs(z.real - c.real) <= 1e-10
                else:
                    assert abs(abs(z - c) - r) <= 1e-10

    def test_reflection_symmetry_of_family_nerve(self):
        # The palindromic chain's packing is mirror symmetric once the middle
        # circle's tangency is normalized to infinity.
        from augcusp.families import gen_twobridge_family, twobridge_middle_circle

        fam = gen_twobridge_family(2, [1, 1])
        nerve = build_nerve(fam.parent)
        packing = solve_packing(nerve)
        mid = twobridge_middle_circle(fam)
        eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == mid)
        norm = normalize_at_vertex(packing, eid)
        finite = np.isfinite(norm.radius)
        finite = list(zip(norm.center[finite].tolist(), norm.radius[finite].tolist()))
        xs = [z.real for z, _ in finite]
        axis = (min(xs) + max(xs)) / 2
        mirrored = sorted(
            (round(2 * axis - z.real, 8), round(z.imag, 8), round(r, 8)) for z, r in finite
        )
        original = sorted((round(z.real, 8), round(z.imag, 8), round(r, 8)) for z, r in finite)
        assert mirrored == original


class TestNormalization:
    def test_idempotent(self):
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        once = normalize_at_vertex(packing, 3)
        twice = normalize_at_vertex(once, 3)
        finite = np.isfinite(once.radius)
        assert np.array_equal(np.isfinite(twice.radius), finite)
        assert np.max(np.abs(once.center[finite] - twice.center[finite])) <= 1e-8
        assert np.max(np.abs(once.radius[finite] - twice.radius[finite])) <= 1e-8

    def test_cross_ratio_invariance(self):
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        norm = normalize_at_vertex(packing, 3)
        finite = np.flatnonzero(~np.isnan(packing.points) & ~np.isnan(norm.points))
        before = cross_ratio(*packing.points[finite[:4]].tolist())
        after = cross_ratio(*norm.points[finite[:4]].tolist())
        assert abs(before - after) <= 1e-10

    def test_tangency_residuals_preserved(self):
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        norm = normalize_at_vertex(packing, 5)
        assert norm.max_residual() <= 1e-9

    def test_cusp_frame_has_exact_unit_strip(self):
        al, _ = augment(catalog.two_bridge_chain(13))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        for eid in (0, 7, len(nerve.edges) - 1):
            norm = normalize_at_vertex(packing, eid)
            u, v = norm.lines
            assert {u, v} == set(nerve.edge_vertices(eid))
            assert norm.center[u] == 0j and norm.center[v] == 1j
            assert np.isinf(norm.radius[[u, v]]).all()
            assert np.isinf(norm.radius).sum() == 2
            assert norm.max_residual() <= packing.tol

    def test_shifted_and_scaled_packing_gives_the_same_frame(self):
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        moved = dataclasses.replace(
            packing, center=0.5 * packing.center + (3.0 - 5.0j), radius=0.5 * packing.radius
        )
        for eid in (nerve.infinity_edge, 3):
            want = normalize_at_vertex(packing, eid)
            got = normalize_at_vertex(moved, eid)
            assert got.lines == want.lines
            assert np.max(np.abs(got.center - want.center)) <= 1e-12
            finite = np.isfinite(want.radius)
            assert np.max(np.abs(got.radius[finite] - want.radius[finite])) <= 1e-12

    def test_whites_not_tangent_at_the_cusp_are_refused(self):
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = dataclasses.replace(build_nerve(al), infinity_edge=0)
        packing = solve_packing(nerve)
        a, _ = nerve.edge_vertices(3)
        # Edge 3 joins circle a to the line y = 1: move a off that line.
        center = packing.center.copy()
        center[a] -= 0.1j * packing.radius[a]
        with pytest.raises(ConvergenceError, match="^normalize_at_vertex: "):
            normalize_at_vertex(dataclasses.replace(packing, center=center), 3)


def frames(d):
    al, _ = augment(d)
    nerve = build_nerve(al)
    packing = solve_packing(nerve)
    return al, nerve, packing, [
        normalize_at_vertex(packing, nerve.cusp_edges[c][0]) for c in nerve.cusps()
    ]


def always_polished(packing, edge_ids):
    """Reference frames of a block: the map, then a float64 Newton polish of
    every frame in its own lines (full_refine)."""
    block = normalize_at_vertex(packing, edge_ids)
    polished = []
    for norm in block:
        u, v, eid = *norm.lines, norm.normalization["infinity_edge"]
        polished.append(full_refine(norm.nerve, norm.center, norm.radius, u, v, eid, norm.tol))
    center, radius = zip(*polished)
    return dataclasses.replace(block, center=np.array(center), radius=np.array(radius))


def assert_same_frame(got, want):
    """Bit for bit: the whites, their derived arrays and the records."""
    assert got.lines == want.lines and got.normalization == want.normalization
    for x, y in [
        (got.center, want.center), (got.radius, want.radius), (got.points, want.points),
        *zip(got.disks, want.disks), (got.residuals, want.residuals),
    ]:
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def block_packings(name):
    if name != "fal_corpus-4":
        d = catalog.two_bridge_chain(41) if name == "chain-41" else catalog.pretzel_link([3] * 10)
        return [solve_packing(build_nerve(augment(d)[0]))]
    packings = []
    for _name, al in fal_corpus(4):
        try:
            packings.append(solve_packing(build_nerve(al)))
        except UnsupportedLinkError:
            continue
    return packings


class TestBlocks:
    @pytest.mark.parametrize("name", ["chain-41", "pretzel-3x10", "fal_corpus-4"])
    def test_block_frames_are_the_single_frames(self, name):
        packings = block_packings(name)
        assert packings
        for packing in packings:
            nerve = packing.nerve
            eids = np.array([nerve.cusp_edges[c][0] for c in nerve.cusps()])
            assert nerve.infinity_edge in eids  # the cusp already at infinity
            block = normalize_at_vertex(packing, eids)
            backwards = list(normalize_at_vertex(packing, eids[::-1]))[::-1]
            assert len(block) == len(backwards) == len(eids)
            for eid, got, rev in zip(eids.tolist(), block, backwards):
                one = normalize_at_vertex(packing, eid)
                assert one.normalization["infinity_edge"] == eid
                assert_same_frame(got, one)
                assert_same_frame(rev, one)

    def test_a_block_of_one_is_a_list(self):
        packing = solve_packing(build_nerve(augment(catalog.rational_link([2, 2, 2]))[0]))
        (frame,) = normalize_at_vertex(packing, np.array([3]))
        assert_same_frame(frame, normalize_at_vertex(packing, 3))


def reference_frames(packing, eids):
    """Centres and radii of the frames of a block, with the whole map
    w = A + B / (z - p) in np.longdouble from the strip's hi + lo, rounded
    to float64 at the end, then the lines and the flank shift as
    normalize_at_vertex sets them."""
    z = packing.center.astype(np.clongdouble) + packing.lo[0]
    r = packing.radius.astype(np.longdouble) + packing.lo[1]
    nerve = packing.nerve
    ea, eb = nerve.ends[0][eids], nerve.ends[1][eids]
    p = dataclasses.replace(packing, center=z, radius=r, lo=None).points[eids]
    at_infinity = np.isnan(p)
    ends = []
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in (ea, eb):
            line, c = np.isinf(r[i]), z[i] - p
            offset = np.where(line, np.where(at_infinity, z[i].imag, 0.0), 0.5 / abs(c))
            ends.append((np.where(line, 1j, c.conjugate() / abs(c)), offset))
        (na, oa), (nb, ob) = ends
        rot = 1j / na
        yb = np.where((rot * nb).imag > 0, ob, -ob)
        low = (oa < yb) | ((oa == yb) & (ea < eb))
        u, v = np.where(low, ea, eb), np.where(low, eb, ea)
        ylo, yhi = np.where(low, oa, yb), np.where(low, yb, oa)
        k = 1.0 / (yhi - ylo)
        scale, shift = k * rot, -1j * ylo * k
        c = z - p[:, None]
        dist = abs(c)
        den = (dist - r) * (dist + r)
        w, inv = scale[:, None] * c.conjugate(), 1.0 / den
        center = np.empty_like(w)
        center.real, center.imag = w.real * inv, w.imag * inv
        center = (center + shift[:, None]).astype(complex)
        radius = (k[:, None] * r / den).astype(float)
    rows = np.flatnonzero(at_infinity)
    center[rows] = scale[rows, None] * z + shift[rows, None]
    radius[rows] = k[rows, None] * r
    for i in packing.lines:
        off = np.flatnonzero(~at_infinity & (ea != i) & (eb != i))
        delta = z[i].imag - p[off].imag
        center[off, i] = scale[off] * (-0.5j / delta) + shift[off]
        radius[off, i] = 0.5 * k[off] / abs(delta)
    frame = np.arange(len(eids))
    center[frame, u], center[frame, v] = 0j, 1j
    radius[frame, u] = radius[frame, v] = np.inf
    flank = nerve.triangle_whites[nerve.edge_triangles[eids]].reshape(len(eids), -1)
    on_line = (flank == u[:, None]) | (flank == v[:, None])
    x = np.where(on_line, np.inf, center[frame[:, None], flank].real)
    center = np.where(np.isfinite(radius), center - x.min(axis=1)[:, None], center)
    return (u, v), center, radius


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="longdouble is float64 on this platform: no wider reference",
)
class TestReferenceMap:
    @pytest.mark.parametrize(
        "name", ["chain-21", "chain-121", "pretzel-3x10", "pretzel-3x60", "fal_corpus-4"]
    )
    def test_float64_map_is_the_extended_map_to_roundoff(self, name):
        eps = np.finfo(float).eps
        for packing in ladder_packings(name):
            nerve = packing.nerve
            eids = np.array([nerve.cusp_edges[c][0] for c in nerve.cusps()], dtype=np.intp)
            block = normalize_at_vertex(packing, eids)
            (u, v), center, radius = reference_frames(packing, eids)
            assert np.array_equal(block.lines[0], u) and np.array_equal(block.lines[1], v)
            finite = np.isfinite(radius)
            assert np.array_equal(np.isfinite(block.radius), finite)
            for got, want in ((block.center, center), (block.radius, radius)):
                got, want = got[finite], want[finite]
                assert np.all(abs(got - want) <= 4 * eps * np.maximum(1.0, abs(want)))
            assert block.residuals.max() <= 1e-15
            for eid, row in zip(eids.tolist(), block):
                assert_same_frame(row, normalize_at_vertex(packing, eid))


class TestPolishOnlyWhenNeeded:
    """No cusp frame is polished: from the double-double strip every mapped
    frame is within tol, and the measuring gate refuses one that is not."""

    @pytest.mark.parametrize("d", [catalog.pretzel_link([3] * 10), catalog.two_bridge_chain(13)])
    def test_mapped_frames_within_tol_are_not_polished(self, d, caplog):
        _al, _nerve, packing, norms = frames(d)
        for norm in norms:
            assert norm.normalization.keys() == {"infinity_edge", "frame"}
            assert norm.max_residual() <= packing.tol
        with caplog.at_level(logging.DEBUG, logger="augcusp"):
            normalize_at_vertex(packing, 0)
        assert caplog.records == []

    def test_frames_beyond_tol_are_refused(self):
        # A float64 copy of the strip (lo=None) with edge 0 at infinity: the
        # map magnifies its roundoff to up to 7.2e-13 in some chain-81
        # frames, so at tol = 1e-14 the 10 tol gate refuses those frames.
        nerve = build_nerve(augment(catalog.two_bridge_chain(81))[0])
        nerve = dataclasses.replace(nerve, infinity_edge=0)
        strip = solve_packing(nerve)
        assert strip.lo is not None
        packing = dataclasses.replace(strip, lo=None, tol=1e-14)
        cusps = nerve.cusps()
        block = normalize_at_vertex(packing, np.array([nerve.cusp_edges[c][0] for c in cusps]))
        worst = block.residuals.max(axis=1)
        reports = geometry._analyze(packing, cusps)
        refused = [c for c in cusps if isinstance(reports[c], Exception)]
        assert 0 < len(refused) < len(cusps)
        for cusp, error in zip(cusps, worst.tolist()):
            if error > 10 * packing.tol:
                assert isinstance(reports[cusp], ConvergenceError)
                assert str(reports[cusp]).startswith("assemble: tangency residual")
            else:
                assert reports[cusp].cusp == cusp

    def test_extended_strip_frame_needs_no_polish(self):
        # The same chain-81 strip in double-double: every frame within a
        # tenth of tol as mapped, on every platform.
        nerve = build_nerve(augment(catalog.two_bridge_chain(81))[0])
        packing = solve_packing(dataclasses.replace(nerve, infinity_edge=0))
        eids = np.array([nerve.cusp_edges[c][0] for c in nerve.cusps()])
        block = normalize_at_vertex(packing, eids)
        assert block.center.dtype == complex and block.radius.dtype == float
        assert block.residuals.max() <= packing.tol / 10

    @pytest.mark.parametrize("d", [catalog.two_bridge_chain(21), catalog.pretzel_link([3] * 10)])
    def test_reports_match_an_always_polished_frame(self, d, monkeypatch):
        al, nerve, packing, _norms = frames(d)
        got = [geometry.analyze_cusp(al, c, packing=packing, nerve=nerve) for c in nerve.cusps()]
        monkeypatch.setattr(geometry, "normalize_at_vertex", always_polished)
        # Its own packing: the reports of `packing` are kept with it.
        reference = dataclasses.replace(packing)
        want = [geometry.analyze_cusp(al, c, packing=reference, nerve=nerve) for c in nerve.cusps()]
        assert not any(g is w for g, w in zip(got, want))
        for g, w in zip(got, want):
            g, w = g.to_dict(), w.to_dict()
            del g["witness"], w["witness"]  # may name another of tied candidates
            assert g.keys() == w.keys()
            for key in g:
                if isinstance(g[key], str):
                    assert g[key] == w[key]
                    continue
                a, b = np.atleast_1d(g[key]), np.atleast_1d(w[key])
                assert np.all(np.abs(a - b) <= 1e-10 * np.abs(b)), key


def residual_packings():
    """The chain and pretzel ladders, fal_corpus(4), and chain-81 from a
    float64 copy of the strip (lo=None) with edge 0 at infinity."""
    packings = [p for name in [*LADDER, "fal_corpus-4"] for p in ladder_packings(name)]
    wide = solve_packing(
        dataclasses.replace(build_nerve(augment(LADDER["chain-81"]())[0]), infinity_edge=0)
    )
    return packings + [dataclasses.replace(wide, lo=None)]


class TestResidualsOnce:
    def test_a_block_derives_its_residuals_once(self, monkeypatch):
        calls = []

        @functools.cached_property
        def counted(self):
            calls.append(np.shape(self.center))
            return derive(self)

        derive = CirclePacking.residuals.func
        counted.__set_name__(CirclePacking, "residuals")
        monkeypatch.setattr(CirclePacking, "residuals", counted)
        frames = 0
        for packing in residual_packings():
            nerve = packing.nerve
            eids = np.array([nerve.cusp_edges[c][0] for c in nerve.cusps()], dtype=np.intp)
            calls.clear()
            block = normalize_at_vertex(packing, eids)
            rows = geometry._rows(block)
            # Once for the block, by the measures, and not again.
            assert calls == [block.center.shape]
            # Of the frames as measured, after the flank shift, bit for bit.
            fresh = derive(block)
            assert np.array_equal(block.residuals, fresh)
            assert rows.worst == fresh.max(axis=1).tolist()
            frames += len(block)
        assert frames == 401 + 170 + 57 + 83


class TestLogging:
    def test_one_record_per_solve_and_one_per_cusp(self, caplog):
        """One INFO record per solve; at DEBUG one record per measured
        block and one height record per knotting cusp, none per frame map."""
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = build_nerve(al)
        with caplog.at_level(logging.DEBUG, logger="augcusp"):
            packing = solve_packing(nerve)
            geometry._analyze(packing, nerve.cusps())
        messages = [r.getMessage() for r in caplog.records]
        solves = [r for r in caplog.records if r.getMessage().startswith("solve_packing:")]
        assert len(solves) == 1 and solves[0].levelno == logging.INFO
        for field in (
            "Newton steps", "angle error", "Gauss-Newton steps", "unknowns",
            "in double-double (tangency error ", "max residual",
        ):
            assert field in solves[0].getMessage()
        heights = [m for m in messages if m.startswith("height: ")]
        assert len(heights) == len(nerve.knotting_cusps) > 1
        assert not [m for m in messages if m.startswith("normalize_at_vertex:")]

    def test_no_frame_record_is_formatted_without_debug(self, caplog, monkeypatch):
        packing = solve_packing(build_nerve(augment(catalog.rational_link([2, 2, 2]))[0]))
        calls = []
        monkeypatch.setattr(packing_module.log, "debug", lambda *args: calls.append(args))
        with caplog.at_level(logging.INFO, logger="augcusp"):
            normalize_at_vertex(packing, np.arange(len(packing.nerve.edges)))
        assert calls == []
