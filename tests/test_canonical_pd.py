"""canonical_pd / pd_isomorphic against the exhaustive backtracking search,
and the lockstep reader and the component inference against the readings
and the union-find they replaced."""

import logging
import math
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from augcusp import catalog
from augcusp.augment import apply_filling
from augcusp.diagram import (
    Diagram,
    _with_inferred_components,
    canonical_pd,
    pd_isomorphic,
)
from augcusp.families import fal_corpus


def backtrack_isomorphic(d1, d2):
    """Reference: search crossing by crossing for a bijection of crossings,
    a rotation by 0 or 2 slots per crossing and an edge relabelling that
    carry one PD code onto the other."""
    if len(d1.crossings) != len(d2.crossings) or len(d1.loops) != len(d2.loops):
        return False
    n = len(d1.crossings)

    def variants(cr):
        yield cr
        yield (cr[2], cr[3], cr[0], cr[1])

    def backtrack(i, used, emap):
        if i == n:
            return True
        for j in range(n):
            if j in used:
                continue
            for variant in variants(d2.crossings[j]):
                new = {}
                ok = True
                for a, b in zip(d1.crossings[i], variant):
                    cur = emap.get(a, new.get(a))
                    if cur is None:
                        if b in emap.values() or b in new.values():
                            ok = False
                            break
                        new[a] = b
                    elif cur != b:
                        ok = False
                        break
                if not ok:
                    continue
                emap.update(new)
                used.add(j)
                if backtrack(i + 1, used, emap):
                    return True
                used.discard(j)
                for k in new:
                    del emap[k]
        return False

    return backtrack(0, set(), {})


def scrambled(d, rng):
    """The same PD code with fresh edge ids, shuffled crossings and random
    crossings rotated by two."""
    ids = rng.sample(range(1, 10 * len(d.components) + 10), len(d.components))
    new_id = dict(zip(sorted(d.components), ids))
    crossings = []
    for cr in d.crossings:
        cr = tuple(new_id[e] for e in cr)
        if rng.random() < 0.5:
            cr = cr[2:] + cr[:2]
        crossings.append(cr)
    rng.shuffle(crossings)
    components = {new_id[e]: lab for e, lab in d.components.items()}
    return Diagram(tuple(crossings), components, None, d.loops)


def mirror(d):
    """Over and under exchanged at every crossing."""
    return Diagram(tuple(cr[1:] + cr[:1] for cr in d.crossings), dict(d.components))


def reflection(d):
    """The diagram seen from below the projection plane."""
    return Diagram(tuple(cr[:1] + cr[:0:-1] for cr in d.crossings), dict(d.components))


def disjoint_union(*parts):
    crossings, components, offset = [], {}, 0
    for d in parts:
        crossings += [tuple(e + offset for e in cr) for cr in d.crossings]
        components.update({e + offset: f"{offset}.{lab}" for e, lab in d.components.items()})
        offset += max(d.components)
    return Diagram(tuple(crossings), components)


# At most 8 crossings: the backtracker is exponential on shuffled inputs.
twists = st.sampled_from([-3, -2, -1, 1, 2, 3, 4])
small_diagrams = st.one_of(
    st.lists(twists, min_size=1, max_size=3).map(catalog.rational_link),
    st.lists(twists, min_size=2, max_size=3).map(catalog.pretzel_link),
).filter(lambda d: len(d.crossings) <= 8)
seeds = st.integers(0, 2**32 - 1)
SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(small_diagrams, seeds)
def test_key_invariant_under_relabelling_shuffle_and_rotation(d, seed):
    other = scrambled(d, random.Random(seed))
    assert canonical_pd(other) == canonical_pd(d)
    assert pd_isomorphic(d, other) and backtrack_isomorphic(d, other)


@SETTINGS
@given(small_diagrams, small_diagrams, seeds)
def test_key_equality_agrees_with_backtracker(d1, d2, seed):
    d2 = scrambled(d2, random.Random(seed))
    assert pd_isomorphic(d1, d2) == backtrack_isomorphic(d1, d2)


@SETTINGS
@given(small_diagrams, st.sampled_from([mirror, reflection]))
def test_mirror_agrees_with_backtracker(d, flip):
    m = flip(d)
    assert pd_isomorphic(d, m) == backtrack_isomorphic(d, m)


def test_mirror_and_different_knots_are_not_isomorphic():
    trefoil = catalog.trefoil()
    for other in (mirror(trefoil), reflection(trefoil), catalog.figure_eight()):
        assert not backtrack_isomorphic(trefoil, other)
        assert not pd_isomorphic(trefoil, other)


def test_split_diagram_is_a_multiset_of_parts():
    t, f = catalog.trefoil(), catalog.figure_eight()
    tf, ft = disjoint_union(t, f), disjoint_union(f, t)
    assert canonical_pd(tf) == canonical_pd(ft)
    assert backtrack_isomorphic(tf, ft)
    assert not pd_isomorphic(tf, disjoint_union(t, t))
    assert not pd_isomorphic(disjoint_union(t, t), disjoint_union(t, mirror(t)))


def test_loops_are_counted():
    t = catalog.trefoil()
    looped = Diagram(t.crossings, dict(t.components), None, ("L",))
    assert not pd_isomorphic(t, looped)
    assert pd_isomorphic(looped, Diagram(t.crossings, dict(t.components), None, ("M",)))


@pytest.mark.parametrize("columns", [5, 10])
def test_shuffled_large_pretzels(columns):
    # 20 and 40 crossings: the backtracker did not finish these in minutes.
    d = catalog.pretzel_link([4] * columns)
    assert pd_isomorphic(d, scrambled(d, random.Random(columns)))
    other = catalog.pretzel_link([3, 5] + [4] * (columns - 2))
    assert len(other.crossings) == len(d.crossings)
    assert not pd_isomorphic(d, scrambled(other, random.Random(columns)))


# -- the match against key equality and the backtracker --------------------------


@st.composite
def pieces(draw, size):
    """A connected rational diagram of `size` crossings, maybe mirrored or
    reflected."""
    vector, left = [], size
    while left:
        k = draw(st.integers(1, min(left, 3)))
        vector.append(draw(st.sampled_from([k, -k])))
        left -= k
    flip = draw(st.sampled_from([None, mirror, reflection]))
    d = catalog.rational_link(vector)
    return flip(d) if flip else d


def assembled(parts, loops):
    """The split diagram of `parts` and `loops` crossingless loops."""
    labels = tuple(f"L{i}" for i in range(loops))
    if not parts:
        return Diagram((), {}, None, labels)
    d = disjoint_union(*parts)
    return Diagram(d.crossings, dict(d.components), None, labels)


@st.composite
def split_diagrams(draw, sizes):
    loops = draw(st.integers(0 if sizes else 1, 2))
    return [draw(pieces(size)) for size in sizes], loops


part_sizes = st.lists(st.integers(1, 4), max_size=2)


@st.composite
def diagram_pairs(draw):
    """Two diagrams of up to two parts of at most four crossings and up to
    two loops, either way round, the second scrambled: two independent
    draws, or the same parts, some redrawn at their crossing count, maybe
    listed the other way and maybe with another number of loops."""
    parts, loops = draw(split_diagrams(draw(part_sizes)))
    if draw(st.booleans()):
        other, other_loops = draw(split_diagrams(draw(part_sizes)))
    else:
        other = [draw(pieces(len(p.crossings))) if draw(st.booleans()) else p for p in parts]
        if draw(st.booleans()):
            other.reverse()
        other_loops = draw(st.sampled_from([loops, 0 if other else 1, 2]))
    a = assembled(parts, loops)
    b = scrambled(assembled(other, other_loops), random.Random(draw(seeds)))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=400, deadline=None)
@given(diagram_pairs())
def test_match_agrees_with_key_equality_and_the_backtracker(pair):
    a, b = pair
    expected = backtrack_isomorphic(a, b)
    event(f"isomorphic: {expected}")
    assert (canonical_pd(a) == canonical_pd(b)) == expected
    assert pd_isomorphic(a, b) == expected


def test_parts_of_equal_size_are_matched_as_a_multiset():
    t, f = catalog.trefoil(), catalog.figure_eight()
    m, h = mirror(t), catalog.rational_link([2, 1])  # 3 crossings each
    for first, second, same in (
        ((t, m), (m, t), True),
        ((t, m), (t, t), False),
        ((t, t), (m, t), False),
        ((h, t, f), (f, t, h), True),
        ((h, t, f), (f, h, m), False),
    ):
        a = disjoint_union(*first)
        b = scrambled(disjoint_union(*second), random.Random(len(first)))
        assert backtrack_isomorphic(a, b) == same
        assert pd_isomorphic(a, b) == pd_isomorphic(b, a) == same


def test_crossingless_diagrams_compare_by_their_loops():
    one, two = assembled([], 1), assembled([], 2)
    assert pd_isomorphic(one, Diagram((), {}, None, ("M",)))
    assert not pd_isomorphic(one, two) and not pd_isomorphic(two, one)
    assert not pd_isomorphic(one, catalog.trefoil())
    assert not pd_isomorphic(assembled([catalog.unknot_kink()], 1), assembled([], 2))


def test_match_memory_is_linear():
    # The lockstep keys of these two diagrams peak at about 1.35 MB.
    d = catalog.two_bridge_chain(401)  # 802 crossings
    other = scrambled(d, random.Random(401))
    tracemalloc.start()
    try:
        assert pd_isomorphic(d, other)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_one_debug_record_per_match(caplog):
    t, f = catalog.trefoil(), catalog.figure_eight()
    cases = [
        (t, scrambled(t, random.Random(1)), True),
        (t, mirror(t), False),
        (t, f, False),  # crossing counts differ: no reading tried
        (disjoint_union(t, f), disjoint_union(f, t), True),
        (assembled([], 2), assembled([], 2), True),
    ]
    with caplog.at_level(logging.DEBUG, logger="augcusp"):
        for a, b, _ in cases:
            pd_isomorphic(a, b)
    records = [r for r in caplog.records if r.getMessage().startswith("pd_isomorphic: ")]
    assert len(records) == len(cases)
    assert {r.levelno for r in records} == {logging.DEBUG}
    pattern = r"pd_isomorphic: (\d+) crossings, (\d+) parts, (\d+) readings tried: (.*)"
    for (a, b, same), record in zip(cases, records):
        n, parts, tried, verdict = re.fullmatch(pattern, record.getMessage()).groups()
        assert (int(n), int(parts)) == (len(a.crossings), len(a._parts))
        assert verdict == ("isomorphic" if same else "not isomorphic")
        if len(a.crossings) != len(b.crossings) or not a.crossings:
            assert tried == "0"
        else:  # at least one reading per part, at most every reading of d2
            assert len(a._parts) <= int(tried) <= 2 * len(b.crossings)


def test_a_diagram_survives_pickling():
    d = catalog.figure_eight()
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and canonical_pd(copy) == canonical_pd(d)


# -- the lockstep reader against one reading at a time ---------------------------


def reference_part_codes(d):
    """The least BFS code of each part, each reading run on its own and
    abandoned as soon as it exceeds the least code read so far."""
    twin = d._twin
    seen = set()
    codes = []
    for c in range(len(d.crossings)):
        if c in seen:
            continue
        best, part = reference_bfs_code(twin, c, 0, None)
        seen.update(part)
        for start in part:
            for rot in (0, 2):
                found = reference_bfs_code(twin, start, rot, best)
                if found is not None:
                    best = found[0]
        codes.append(tuple(best))
    return codes


def reference_bfs_code(twin, start, rot, best):
    """(code, crossings in reading order) of the reading from `start`
    rotated by `rot`, or None once the code exceeds `best`."""
    rotation = {start: rot}
    order = [start]
    number = {}  # dart -> edge number
    code = []
    tied = best is not None
    for c in order:
        r = rotation[c]
        for k in range(4):
            x = 4 * c + (k + r) % 4
            e = number.get(x)
            if e is None:
                y = twin[x]
                e = number[x] = number[y] = len(number) // 2 + 1
                if y >> 2 not in rotation:
                    rotation[y >> 2] = y & 2
                    order.append(y >> 2)
            if tied:
                b = best[len(code)]
                if e > b:
                    return None
                tied = e == b
            code.append(e)
    return code, order


def reference_key(d):
    return (len(d.loops), tuple(sorted(reference_part_codes(d))))


def reference_components(crossings):
    """Edge id -> str(k) for the k-th union-find class, the classes in the
    order of their least edge."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cr in crossings:
        parent[find(cr[0])] = find(cr[2])
        parent[find(cr[1])] = find(cr[3])
    reps = {}
    return {
        e: str(reps.setdefault(find(e), len(reps)))
        for e in sorted({e for cr in crossings for e in cr})
    }


def automorphisms(d):
    """Readings whose code is the least code of their part, over all parts."""
    twin = d._twin
    least = set(reference_part_codes(d))
    return sum(
        tuple(reference_bfs_code(twin, c, rot, None)[0]) in least
        for c in range(len(d.crossings))
        for rot in (0, 2)
    )


def assert_read_as_reference(d, seed=0):
    """Key and inferred components agree with the references on the diagram
    and on a scrambled copy (fresh edge ids, shuffled and rotated crossings)."""
    for e in (d, scrambled(d, random.Random(seed))):
        assert canonical_pd(e) == reference_key(e)
        inferred = _with_inferred_components(e.crossings, None, e.loops).components
        assert list(inferred.items()) == list(reference_components(e.crossings).items())


def sigma1_closure(n):
    return catalog.braid_closure(2, [(1, 1)] * n)


def occurrences(d):
    """Edge id -> its two (crossing, slot) ends, in crossing order, the
    edges in order of first appearance, read off the dart index."""
    darts, edge = d._darts, d._edge
    return {
        edge[x]: ((x >> 2, x & 3), (y >> 2, y & 3))
        for x, y in sorted(zip(darts[::2], darts[1::2]))
    }


def kinked(d, e, loop_first):
    """d with a Reidemeister I kink on edge e, at its second end: the new
    crossing's loop edge sits at two adjacent slots."""
    top = max(d.components)
    a, b = top + 1, top + 2
    (c, s) = occurrences(d)[e][1]
    crossings = [list(cr) for cr in d.crossings]
    crossings[c][s] = b
    crossings.append([a, a, b, e] if loop_first else [e, a, a, b])
    components = {**d.components, a: d.components[e], b: d.components[e]}
    return Diagram(tuple(map(tuple, crossings)), components, None, d.loops)


LADDER = [("chain", k) for k in (5, 9, 13, 21, 31, 41, 61, 81, 121)] + [
    ("pretzel", c) for c in (10, 20, 30, 40, 60)
]


def ladder_diagram(kind, size):
    if kind == "chain":
        return catalog.two_bridge_chain(size)
    return catalog.pretzel_link([3] * size)


# Up to 30 crossings: more readings than one batch of the lockstep reader.
larger_diagrams = st.one_of(
    st.lists(twists, min_size=1, max_size=6).map(catalog.rational_link),
    st.lists(twists, min_size=2, max_size=7).map(catalog.pretzel_link),
)


class TestLockstepReader:
    @settings(max_examples=120, deadline=None)
    @given(larger_diagrams, seeds)
    def test_scrambled_diagrams(self, d, seed):
        assert_read_as_reference(scrambled(d, random.Random(seed)), seed)

    @pytest.mark.parametrize("kind, size", LADDER)
    def test_ladder_diagrams(self, kind, size):
        assert_read_as_reference(ladder_diagram(kind, size), size)

    @pytest.mark.parametrize("name", [name for name, _ in fal_corpus(4)])
    def test_fal_corpus_bases_and_fillings(self, name):
        al = dict(fal_corpus(4))[name]
        assert_read_as_reference(al.base)
        assert_read_as_reference(apply_filling(al, {}))

    def test_split_diagrams_with_loops(self):
        t, f = catalog.trefoil(), catalog.figure_eight()
        for parts in ((t, f), (f, t, t), (catalog.unknot_kink(), t)):
            d = disjoint_union(*parts)
            for loops in ((), ("L",), ("L", "M")):
                assert_read_as_reference(Diagram(d.crossings, dict(d.components), None, loops))

    def test_kinked_diagrams(self):
        assert_read_as_reference(catalog.unknot_kink())
        for d in (
            catalog.trefoil(),
            catalog.figure_eight(),
            catalog.pretzel_link([3, 3, 2]),
            catalog.two_bridge_chain(9),  # 18 crossings, 2 components
        ):
            for e in (min(d.components), max(d.components)):
                for loop_first in (False, True):
                    k = kinked(d, e, loop_first)
                    assert_read_as_reference(k)
                    assert_read_as_reference(kinked(k, min(k.components), not loop_first))

    def test_every_reading_an_automorphism(self):
        # 400 readings in 13 batches, and all of them read the same code.
        d = sigma1_closure(200)
        assert_read_as_reference(d)
        assert automorphisms(d) == 400

    def test_more_parts_than_one_batch(self):
        parts = [catalog.trefoil(), catalog.figure_eight(), catalog.unknot_kink()] * 12
        d = disjoint_union(*parts)
        assert len(d._parts) == 36
        assert_read_as_reference(d)
        assert_read_as_reference(disjoint_union(sigma1_closure(20), *parts[:5]))

    def test_memory_is_bounded_by_the_batch(self):
        d = catalog.two_bridge_chain(401)  # 802 crossings, 1604 readings
        tracemalloc.start()
        try:
            canonical_pd(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_one_debug_record_per_key(self, caplog):
        cases = [
            sigma1_closure(200),
            catalog.two_bridge_chain(13),
            catalog.pretzel_link([3, 3, 3]),
            disjoint_union(catalog.trefoil(), catalog.trefoil(), catalog.figure_eight()),
        ]
        with caplog.at_level(logging.DEBUG, logger="augcusp"):
            for d in cases:
                canonical_pd(d)
                canonical_pd(d)  # cached: no second record
        records = [r for r in caplog.records if r.getMessage().startswith("canonical_pd: ")]
        assert len(records) == len(cases)
        assert {r.levelno for r in records} == {logging.DEBUG}
        pattern = (
            r"canonical_pd: (\d+) crossings, (\d+) parts, (\d+) readings in "
            r"(\d+) batches, (\d+) alive at the last crossing"
        )
        for d, record in zip(cases, records):
            n, parts, readings, batches, alive = map(
                int, re.fullmatch(pattern, record.getMessage()).groups()
            )
            assert (n, parts, readings) == (len(d.crossings), len(d._parts), 2 * n)
            assert batches == sum(math.ceil(2 * len(p) / 32) for p in d._parts)
            assert alive == automorphisms(d)
