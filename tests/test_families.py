import dataclasses

import pytest

from augcusp import catalog
from augcusp.errors import AugcuspError
from augcusp.families import (
    fal_corpus,
    gen_longitude_family,
    gen_twobridge_family,
    longitude_family_invariants,
    three_punctured_certificate,
    twobridge_filled,
)


class TestTwoBridgeFamily:
    def test_component_count_n1(self):
        fam = gen_twobridge_family(1, [1])
        # two knotting components plus 2n + 1 crossing circles
        assert len(fam.parent.knotting_components) == 2
        assert len(fam.parent.circles) == 3
        labels = set(fam.labels.values())
        assert labels == {"L0", "L1", "L-1"}

    def test_ledger_slopes(self):
        fam = gen_twobridge_family(2, [3, -2])
        pairs = {fam.labels[k]: str(v) for k, v in fam.ledger.items()}
        assert pairs == {"L1": "1/3", "L-1": "-1/3", "L2": "-1/2", "L-2": "1/2"}

    def test_zero_twists_leave_parent_unfilled(self):
        fam0 = gen_twobridge_family(1, [0])
        assert len(fam0.ledger) == 0
        filled = twobridge_filled(fam0)
        # nothing is filled: all five components survive as a plain diagram
        assert len(filled.component_labels) == 5

    def test_filled_result_has_two_crossing_circles(self):
        fam = gen_twobridge_family(1, [1])
        filled = twobridge_filled(fam)
        # the two mirror circles are filled away, leaving the knot-to-be
        # circle and the two components that become its crossing circles
        assert len(filled.component_labels) == 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen_twobridge_family(0, [])
        with pytest.raises(ValueError):
            gen_twobridge_family(2, [1])


class TestLongitudeFamily:
    def test_n0_is_the_two_circle_link(self):
        al = gen_longitude_family(0)
        assert len(al.circles) == 2
        assert {c.strand_count for c in al.circles.values()} == {7}

    def test_circle_count(self):
        for n in (1, 3, 5):
            al = gen_longitude_family(n)
            assert len(al.circles) == 2 + 2 * n

    def test_new_disks_meet_strand_four_times_same_side(self):
        for n in range(0, 6):
            inv = longitude_family_invariants(gen_longitude_family(n))
            assert inv["new_disks_meet_strand_four_times"]
            assert inv["new_punctures_same_component"]

    def test_a_new_disk_met_three_times_is_reported(self):
        # The count reads the strand's passages, not the circle's own
        # strand count, which still says 4.
        al = gen_longitude_family(2)
        dropped = next(k for k, p in enumerate(al.passages["K"]) if p.circle == "C3")
        passages = al.passages["K"][:dropped] + al.passages["K"][dropped + 1:]
        short = dataclasses.replace(al, passages={"K": passages})
        assert short.circles["C3"].strand_count == 4
        inv = longitude_family_invariants(short)
        assert inv["four_strand_circles"] == 4
        assert not inv["new_disks_meet_strand_four_times"]

    def test_certificate_for_all_n(self):
        for n in range(0, 11):
            cert = three_punctured_certificate(gen_longitude_family(n), "K")
            assert cert is not None
            assert cert.bound == 4.0
            assert 2 in cert.side_punctures

    def test_unshaded_side_has_exactly_two_punctures(self):
        for n in (0, 2, 4):
            cert = three_punctured_certificate(gen_longitude_family(n), "K")
            if n == 0:
                assert cert.side_punctures == (2, 2)
            else:
                # the shaded side collects both punctures of all 2n new disks
                other = [c for c in cert.side_punctures if c != 2]
                assert other == [2 + 4 * n]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            gen_longitude_family(-1)


def test_argument_errors_are_package_errors():
    bad_calls = [
        lambda: catalog.braid_closure(2, []),
        lambda: catalog.rational_link([2, 0]),
        lambda: catalog.two_bridge_chain(0),
        lambda: catalog.pretzel_link([3, 0]),
        lambda: gen_twobridge_family(0, []),
        lambda: gen_twobridge_family(2, [1]),
        lambda: gen_longitude_family(-1),
    ]
    for call in bad_calls:
        with pytest.raises(AugcuspError) as info:
            call()
        assert isinstance(info.value, ValueError)


class TestCorpus:
    def test_counts_and_determinism(self):
        corpus = fal_corpus(4)
        assert 5 <= len(corpus) <= 50
        names = [n for n, _ in corpus]
        assert names == [n for n, _ in fal_corpus(4)]
        sizes = {len(al.circles) for _, al in corpus}
        assert {1, 2, 3, 4} <= sizes
