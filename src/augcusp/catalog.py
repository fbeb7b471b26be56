"""Builders for standard diagrams: braid closures, rational links, pretzels.

Everything is produced through the same PD conventions as diagram.py, so the
rest of the pipeline (faces, twist regions, augmentation) can rely on them
without external fixtures.
"""

from __future__ import annotations

from .diagram import Crossing, Diagram, Edge, _with_inferred_components, braid_crossing
from .errors import DiagramInvariantError


def _relabel(crossings: list[Crossing], unions: list[tuple[Edge, Edge]]) -> list[Crossing]:
    """Rename edge a to b for each pair (a, b) in `unions`, then number the
    edges from 1.  No b is renamed in turn, so one lookup resolves an edge."""
    alias = dict(unions)
    raw = [tuple(alias.get(e, e) for e in cr) for cr in crossings]
    ids = sorted({e for cr in raw for e in cr})
    compact = {e: i + 1 for i, e in enumerate(ids)}
    return [tuple(compact[e] for e in cr) for cr in raw]


def _labeled(crossings: list[Crossing]) -> Diagram:
    return _with_inferred_components(tuple(crossings))


def braid_closure(strands: int, word: list[tuple[int, int]]) -> Diagram:
    """Closure of the braid given by signed generator indices (i, sign)."""
    if not word:
        raise DiagramInvariantError("empty braid word")
    current = list(range(1, strands + 1))
    nxt = strands + 1
    crossings: list[Crossing] = []
    for i, s in word:
        li, ri = current[i - 1], current[i]
        lo, ro = nxt, nxt + 1
        nxt += 2
        crossings.append(braid_crossing(s, li, ri, lo, ro))
        current[i - 1], current[i] = lo, ro
    unions = [(current[i], i + 1) for i in range(strands)]
    return _labeled(_relabel(crossings, unions))


def trefoil() -> Diagram:
    return braid_closure(2, [(1, 1)] * 3)


def figure_eight() -> Diagram:
    return braid_closure(3, [(1, 1), (2, -1), (1, 1), (2, -1)])


def unknot_kink() -> Diagram:
    """One-crossing diagram of the unknot."""
    return _labeled([(1, 2, 2, 1)])


def borromean_rings() -> Diagram:
    """Standard alternating 6-crossing diagram; it has no bigons."""
    return braid_closure(3, [(1, 1), (2, -1)] * 3)


class _Tangle:
    """Rational tangle under construction, tracked by its four endpoint edges."""

    def __init__(self):
        self.crossings: list[Crossing] = []
        self.nw, self.ne = 1, 1
        self.sw, self.se = 2, 2
        self.nxt = 3

    def twist_right(self, sign: int) -> None:
        # Flow direction is east; the braid convention's "left" strand is the
        # southern one (the flow-down picture rotated a quarter turn).
        lo, ro = self.nxt, self.nxt + 1
        self.nxt += 2
        self.crossings.append(braid_crossing(sign, self.se, self.ne, lo, ro))
        self.se, self.ne = lo, ro

    def twist_bottom(self, sign: int) -> None:
        lo, ro = self.nxt, self.nxt + 1
        self.nxt += 2
        self.crossings.append(braid_crossing(sign, self.sw, self.se, lo, ro))
        self.sw, self.se = lo, ro

    def numerator_closure(self) -> Diagram:
        unions = [(self.nw, self.ne), (self.sw, self.se)]
        return _labeled(_relabel(self.crossings, unions))


def rational_link(twist_vector: list[int]) -> Diagram:
    """Alternating rational link built from runs of twists.

    Runs alternate between twisting the two right-hand endpoints and the two
    bottom endpoints, starting on the right; the numerator closure is taken.
    rational_link([3]) is a trefoil diagram.  A vector of even length gives
    a diagram with a nugatory crossing: rational_link([2, 2]) has 4
    crossings and 2 components, so it is not the figure-eight.
    """
    if not twist_vector or any(a == 0 for a in twist_vector):
        raise DiagramInvariantError("twist vector entries must be nonzero")
    t = _Tangle()
    for run, a in enumerate(twist_vector):
        sign = 1 if a > 0 else -1
        for _ in range(abs(a)):
            if run % 2 == 0:
                t.twist_right(sign)
            else:
                t.twist_bottom(-sign)
    return t.numerator_closure()


def two_bridge_chain(k: int) -> Diagram:
    """rational_link([2] * k): k twist regions of two crossings each.

    The result has two components for every k, and a nugatory crossing for
    even k.  The odd k are the parents of the reflective family with a
    middle crossing circle.
    """
    if k < 1:
        raise DiagramInvariantError("k must be at least 1")
    return rational_link([2] * k)


def pretzel_link(twists: list[int]) -> Diagram:
    """Pretzel diagram with one vertical twist column per entry."""
    c = len(twists)
    if c < 2 or any(q == 0 for q in twists):
        raise DiagramInvariantError("need at least two nonzero columns")
    top = [100 * (i + 1) + 1 for i in range(c)]
    bot = [100 * (i + 1) + 2 for i in range(c)]
    nxt = 100 * (c + 1)
    crossings: list[Crossing] = []
    unions: list[tuple[Edge, Edge]] = []
    for i, q in enumerate(twists):
        tl, tr = top[i - 1], top[i]
        cur = [tl, tr]
        sign = 1 if q > 0 else -1
        for _ in range(abs(q)):
            lo, ro = nxt, nxt + 1
            nxt += 2
            crossings.append(braid_crossing(sign, cur[0], cur[1], lo, ro))
            cur = [lo, ro]
        unions.append((cur[0], bot[i - 1]))
        unions.append((cur[1], bot[i]))
    return _labeled(_relabel(crossings, unions))
