"""canonical_pd / pd_isomorphic against the exhaustive backtracking search."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augcusp import catalog
from augcusp.diagram import Diagram, canonical_pd, compute_faces, pd_isomorphic


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


def test_occurrences_and_faces_are_cached_read_only():
    d = catalog.figure_eight()
    occ = d.occurrences()
    assert occ is d.occurrences()
    with pytest.raises(TypeError):
        occ[1] = ()
    assert d.face_map is d.face_map
    assert d.face_map == compute_faces(d)
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and canonical_pd(copy) == canonical_pd(d)
