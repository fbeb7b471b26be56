import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from augcusp import catalog
from augcusp.augment import (
    apply_filling,
    augment,
    ledger_json,
    untwist_retwist_roundtrip,
)
from augcusp.diagram import Diagram, detect_twist_regions, pd_isomorphic
from augcusp.errors import DiagramInvariantError
from augcusp.families import fal_corpus, three_punctured_certificate
from test_canonical_pd import scrambled


class TestAugment:
    def test_trefoil(self):
        al, ledger = augment(catalog.trefoil())
        assert len(al.circles) == 1
        c = al.circles["C1"]
        assert c.strand_count == 2 and c.half_twist
        assert len(al.base.crossings) == 1  # the retained half twist
        assert ledger == {"C1": Fraction(1, 1)}

    def test_figure_eight(self):
        al, ledger = augment(catalog.figure_eight())
        assert len(al.circles) == 2
        assert al.base.crossings == ()  # flat base
        assert al.base.loops == ("0",)
        assert all(abs(s) == 1 for s in ledger.values())
        assert len(ledger) == 2

    @pytest.mark.parametrize("d", [catalog.trefoil(), catalog.figure_eight()])
    def test_crossingless_components_are_kept(self, d):
        with_loop = Diagram(d.crossings, d.components, None, ("L",))
        al, _ = augment(with_loop)
        assert "L" in al.base.loops and al.passages["L"] == []
        back = untwist_retwist_roundtrip(with_loop)
        assert back.loops == ("L",)
        assert pd_isomorphic(back, with_loop)
        assert not pd_isomorphic(back, d)

    def test_half_twist_only_region_has_no_ledger_entry(self):
        al, ledger = augment(catalog.unknot_kink())
        assert len(al.circles) == 1
        assert len(ledger) == 0

    def test_overlapping_regions_rejected(self):
        d = catalog.figure_eight()
        regs = detect_twist_regions(d)
        bad = [regs[0], regs[0]]
        with pytest.raises(DiagramInvariantError):
            augment(d, bad)

    @staticmethod
    def pretzel_with_first_region(**changes):
        d = catalog.pretzel_link([3, 3, 3])
        regions = detect_twist_regions(d)
        return d, [dataclasses.replace(regions[0], **changes)] + regions[1:]

    def test_region_without_crossings_is_refused(self):
        d, regions = self.pretzel_with_first_region(crossings=[])
        with pytest.raises(DiagramInvariantError, match=r"^region C1 has no crossings$"):
            augment(d, regions)

    def test_chain_without_bigon_edge_pairs_is_refused(self):
        d, regions = self.pretzel_with_first_region(bigon_edge_pairs=[])
        with pytest.raises(
            DiagramInvariantError,
            match=r"^region C1 on crossings \[0, 1, 2\] has no bigon edge pair$",
        ):
            augment(d, regions)

    def test_first_bigon_pair_off_the_first_crossing_is_refused(self):
        d, regions = self.pretzel_with_first_region()
        far = regions[0].bigon_edge_pairs[1]  # between the second and third crossings
        assert not set(far) & set(d.crossings[regions[0].crossings[0]])
        regions[0] = dataclasses.replace(regions[0], bigon_edge_pairs=[far, far])
        with pytest.raises(
            DiagramInvariantError,
            match=r"^region C1: first bigon edge pair \(9, 10\) does not meet its first crossing 0$",
        ):
            augment(d, regions)

    def test_disk_punctured_twice(self):
        for d in (catalog.trefoil(), catalog.rational_link([2, 3, 2])):
            al, _ = augment(d)
            counts = {lab: 0 for lab in al.circles}
            for plist in al.passages.values():
                for p in plist:
                    counts[p.circle] += 1
            assert all(v == 2 for v in counts.values())


class TestFilling:
    def test_roundtrip_trefoil_and_figure_eight(self):
        for d in (catalog.trefoil(), catalog.figure_eight()):
            assert pd_isomorphic(untwist_retwist_roundtrip(d), d)

    def test_apply_filling_inverts_augment(self):
        d = catalog.trefoil()
        al, ledger = augment(d)
        assert pd_isomorphic(apply_filling(al, ledger), d)

    def test_one_third_slope_inserts_six_crossings(self):
        al, _ = augment(catalog.figure_eight())
        filled = apply_filling(al, {"C1": Fraction(1, 3)})
        # 6 braid crossings plus the 4 of the expanded second circle
        assert len(filled.crossings) == 10

    def test_negative_slope_inserts_mirror_twists(self):
        al, _ = augment(catalog.figure_eight())
        pos = apply_filling(al, {"C1": Fraction(1, 2)})
        neg = apply_filling(al, {"C1": Fraction(1, -2)})
        assert len(pos.crossings) == len(neg.crossings) == 8
        # Chirality is visible on the trefoil: only the matching sign
        # reproduces the input diagram.
        al3, _ = augment(catalog.trefoil())
        pos3 = apply_filling(al3, {"C1": Fraction(1, 1)})
        neg3 = apply_filling(al3, {"C1": Fraction(1, -1)})
        assert pd_isomorphic(pos3, catalog.trefoil())
        assert not pd_isomorphic(neg3, pos3)

    def test_non_reciprocal_slope_rejected(self):
        al, _ = augment(catalog.figure_eight())
        with pytest.raises(DiagramInvariantError):
            apply_filling(al, {"C1": Fraction(2, 3)})

    def test_unknown_cusp_rejected(self):
        al, _ = augment(catalog.figure_eight())
        with pytest.raises(DiagramInvariantError):
            apply_filling(al, {"nope": Fraction(1, 1)})

    def test_zero_slope_rejected(self):
        al, _ = augment(catalog.figure_eight())
        with pytest.raises(DiagramInvariantError, match="not 1/t"):
            apply_filling(al, {"C1": Fraction(0)})

    def test_randomized_roundtrips(self):
        # Twist entries from 1 give rational vectors whose components pass
        # every crossing circle on one base edge; scrambled copies write the
        # same diagram with other edge ids, crossing order and rotations.
        rng = random.Random(20260808)
        inputs = [
            catalog.rational_link(vec)
            for vec in ([1, 1, 2, 1], [1, 2, 3, 2], [1, 3, 2, 1], [2, 2, 2, 1])
        ]
        for _ in range(60):
            if rng.choice(["rational", "pretzel"]) == "rational":
                k = rng.randint(1, 5)
                inputs.append(catalog.rational_link([rng.randint(1, 4) for _ in range(k)]))
            else:
                c = rng.randint(2, 4)
                inputs.append(catalog.pretzel_link([rng.randint(2, 5) for _ in range(c)]))
        for d in inputs:
            for copy in (d, scrambled(d, rng), scrambled(d, rng)):
                assert pd_isomorphic(untwist_retwist_roundtrip(copy), copy), copy.to_json()


class TestSlopeLedger:
    def test_lowest_terms_and_text_form(self):
        assert ledger_json({"C2": Fraction(-3, 6), "C1": Fraction(2, 4)}) == (
            '{"C1": "1/2", "C2": "-1/2"}'
        )


class TestCertificate:
    def test_borromean_inside_is_twice_punctured(self):
        # The flat strand of the augmented figure eight bounds a disk
        # punctured by exactly one circle pair, so the bound applies.
        al, _ = augment(catalog.figure_eight())
        cert = three_punctured_certificate(al, "0")
        assert cert is not None
        assert cert.bound == 4.0
        assert sorted(cert.side_punctures) == [2, 2]

    def test_longer_chain_strand_not_certified(self):
        # Five circles spread their punctures so neither side of the strand
        # is punctured exactly twice.
        al, _ = augment(catalog.rational_link([2] * 5))
        assert three_punctured_certificate(al, "0") is None
        al2, _ = augment(catalog.pretzel_link([3, 3, 3]))
        assert three_punctured_certificate(al2, "0") is None

    def test_unknown_component_rejected(self):
        al, _ = augment(catalog.figure_eight())
        with pytest.raises(DiagramInvariantError, match="unknown component 'zzz'"):
            three_punctured_certificate(al, "zzz")


FRONT_END_DIGESTS = Path(__file__).resolve().parent / "data" / "front_end_digests.json"


def test_front_end_output_is_unchanged():
    """sha256 of augment's link JSON (and ledger) on fal_corpus(4) and the 14
    ladder diagrams, recorded in tests/data/front_end_digests.json: a
    refactor of the front end must keep these outputs byte-identical."""

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    got = {f"fal/{name}": {"link": sha(al.to_json())} for name, al in fal_corpus(4)}
    ladders = {
        f"chain-{k}": catalog.two_bridge_chain(k) for k in (5, 9, 13, 21, 31, 41, 61, 81, 121)
    }
    ladders.update(
        {f"pretzel-3x{c}": catalog.pretzel_link([3] * c) for c in (10, 20, 30, 40, 60)}
    )
    for name, d in ladders.items():
        al, ledger = augment(d)
        got[name] = {"link": sha(al.to_json()), "ledger": sha(ledger_json(ledger))}
    assert got == json.loads(FRONT_END_DIGESTS.read_text())
