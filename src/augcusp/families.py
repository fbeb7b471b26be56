"""Parametric families: the reflective two-bridge parents and the bounded
longitude links, plus the generated corpus of fully augmented links.

The two-bridge family parent is the fully augmented alternating chain with
an odd number of twist regions: two knotting components carry the mirror
symmetry through the middle crossing circle L0, and the remaining circles
come in mirror pairs (L1, L-1), ... filled along slopes 1/r and -1/r.

The longitude family L_2n is built directly as an augmented-link structure:
a flat knotting strand meeting two seven-strand crossing disks, plus n pairs
of four-strand circles whose plane punctures all lie in the same
three-punctured-sphere component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .augment import AugmentedLink, CrossingCircle, Passage, augment
from .diagram import Diagram, detect_twist_regions
from .errors import DiagramInvariantError


@dataclass
class TwoBridgeFamily:
    n: int
    parent: AugmentedLink
    ledger: dict[str, Fraction]  # 1/r_i on L_i, -1/r_i on L_-i
    labels: dict[str, str]  # internal circle label -> family name


def gen_twobridge_family(n: int, r: list[int]) -> TwoBridgeFamily:
    """Fully augmented reflective 2-bridge parent with n mirror circle pairs.

    The parent link has knotting components C_1 and C_2, the middle crossing
    circle L0 (the component whose cusp becomes the square), and mirror pairs
    L1..Ln, L-1..L-n carrying the filling slopes 1/r_i and -1/r_i.
    """
    if n < 1:
        raise DiagramInvariantError("n must be at least 1")
    if len(r) != n:
        raise DiagramInvariantError(f"need {n} filling integers, got {len(r)}")
    k = 2 * n + 1
    d = catalog.two_bridge_chain(k)
    regions = detect_twist_regions(d)
    if len(regions) != k:
        raise DiagramInvariantError("chain diagram did not produce k regions")
    al, _ = augment(d, regions)
    # Region i (0-based) corresponds to circle C{i+1}; the middle is L0 and
    # pairs count outward from it.
    mid = n  # 0-based index of the middle region
    labels: dict[str, str] = {f"C{mid + 1}": "L0"}
    ledger: dict[str, Fraction] = {}
    for i in range(1, n + 1):
        inner = f"C{mid + 1 - i}"
        outer = f"C{mid + 1 + i}"
        labels[inner] = f"L{i}"
        labels[outer] = f"L-{i}"
        if r[i - 1] != 0:
            ledger[inner] = Fraction(1, r[i - 1])
            ledger[outer] = Fraction(1, -r[i - 1])
    return TwoBridgeFamily(n=n, parent=al, ledger=ledger, labels=labels)


def twobridge_middle_circle(fam: TwoBridgeFamily) -> str:
    for lab, name in fam.labels.items():
        if name == "L0":
            return lab
    raise DiagramInvariantError("no middle circle")


# -- the longitude family --------------------------------------------------------


def gen_longitude_family(n: int) -> AugmentedLink:
    """The link L_{2n}: two seven-strand circles plus n four-strand pairs.

    The knotting strand is a bare loop in the projection plane; C1 and C2
    each meet it seven times with one plane puncture on each side of the
    loop; every added circle meets it four times with both punctures inside
    the same three-punctured-sphere component.
    """
    if n < 0:
        raise DiagramInvariantError("n must be nonnegative")
    base = Diagram(tuple(), {}, None, ("K",))
    circles: dict[str, CrossingCircle] = {}
    passages: list[Passage] = []

    def add_circle(lab: str, m: int, sides: tuple[int, int]) -> None:
        circles[lab] = CrossingCircle(
            label=lab,
            strand_count=m,
            half_twist=False,
            handedness=1,
            rotation=None,
            end_sides={"K": sides},
        )

    add_circle("C1", 7, (0, 1))
    add_circle("C2", 7, (1, 0))
    for j in range(2 * n):  # n pairs of new circles
        add_circle(f"C{3 + j}", 4, (1, 1))

    # Passage order along the knotting loop: interleave the two big disks,
    # then run through the added circles inside the shaded side.
    order: list[tuple[str, int]] = []
    for s in range(7):
        order.append(("C1", s))
        order.append(("C2", s))
    for j in range(2 * n):
        lab = f"C{3 + j}"
        for s in range(4):
            order.append((lab, s))
    for lab, slot in order:
        passages.append(Passage(lab, slot, 1, None))
    return AugmentedLink(base=base, passages={"K": passages}, circles=circles)


# -- three-punctured-sphere certificate -------------------------------------------


@dataclass
class LongitudeCertificate:
    component: str
    bound: float
    side_punctures: tuple[int, int]
    statement: str


def three_punctured_certificate(
    al: AugmentedLink, component: str
) -> LongitudeCertificate | None:
    """Certify longitude length <= 4 when the strand bounds a region of the
    projection plane punctured exactly twice by the other components.

    The two plane punctures of each crossing circle carry a parity class
    relative to the component's curve; the certificate fires when one class
    receives exactly two punctures and the component actually meets some
    crossing disk.
    """
    if component not in al.passages:
        raise DiagramInvariantError(f"unknown component {component!r}")
    if not al.passages[component]:
        return None  # split strand: the bound is vacuous
    counts = [0, 0]
    for lab in sorted(al.circles):
        c = al.circles[lab]
        sides = c.end_sides.get(component)
        if sides is None:
            return None  # parity class unavailable (curve not embeddable)
        counts[sides[0]] += 1
        counts[sides[1]] += 1
    if 2 not in counts:
        return None
    side = counts.index(2)
    return LongitudeCertificate(
        component=component,
        bound=4.0,
        side_punctures=(counts[0], counts[1]),
        statement=(
            "longitude <= 4 (bounds an embedded 3-punctured sphere; maximal "
            "cusp length along it is at most 4)"
        ),
    )


def longitude_family_invariants(al: AugmentedLink) -> dict:
    """Diagram invariants of an L_{2n} link, for verification reports."""
    big = [lab for lab, c in al.circles.items() if c.strand_count == 7]
    small = [lab for lab, c in al.circles.items() if c.strand_count == 4]
    small_same_side = all(
        len(set(al.circles[lab].end_sides["K"])) == 1 for lab in small
    )
    cert = three_punctured_certificate(al, "K")
    return {
        "crossing_circles": len(al.circles),
        "seven_strand_circles": len(big),
        "four_strand_circles": len(small),
        "new_disks_meet_strand_four_times": all(
            sum(p.circle == lab for p in al.passages["K"]) == 4 for lab in small
        ),
        "new_punctures_same_component": small_same_side,
        "certificate": None if cert is None else cert.statement,
    }


# -- generated corpus -------------------------------------------------------------


def fal_corpus(max_circles: int = 4) -> list[tuple[str, AugmentedLink]]:
    """Fully augmented links with up to `max_circles` crossing circles.

    Built from the alternating chain and pretzel catalogs.  Entries whose
    augmentation has no explicit geometry (a single circle, or a circle that
    slides off a hairpin) stay in the corpus to exercise the verifier's skip
    path.  Multi-component clasp chains whose meridians attain 4 exactly
    (boundary cases outside the knot setting) are left out of the bound
    suite.
    """
    recipes: list[tuple[str, Diagram]] = []
    if max_circles >= 1:
        recipes.append(("chain-1", catalog.rational_link([2])))
    if max_circles >= 2:
        recipes.append(("chain-2", catalog.figure_eight()))
        recipes.append(("torus-5", catalog.rational_link([5])))
    if max_circles >= 3:
        recipes.append(("chain-3", catalog.rational_link([2, 2, 2])))
        recipes.append(("pretzel-332", catalog.pretzel_link([3, 3, 2])))
        recipes.append(("pretzel-333", catalog.pretzel_link([3, 3, 3])))
        recipes.append(("pretzel-543", catalog.pretzel_link([5, 4, 3])))
    if max_circles >= 4:
        recipes.append(("chain-4", catalog.rational_link([2, 2, 2, 2])))
        recipes.append(("pretzel-3332", catalog.pretzel_link([3, 3, 3, 2])))
        recipes.append(("pretzel-5432", catalog.pretzel_link([5, 4, 3, 2])))
        recipes.append(("pretzel-3232", catalog.pretzel_link([3, 2, 3, 2])))
        recipes.append(("pretzel-5333", catalog.pretzel_link([5, 3, 3, 3])))
        recipes.append(("pretzel-2222", catalog.pretzel_link([2, 2, 2, 2])))
        recipes.append(("pretzel-3322", catalog.pretzel_link([3, 3, 2, 2])))
    out = []
    for name, d in recipes:
        al, _ = augment(d)
        out.append((name, al))
    return out
