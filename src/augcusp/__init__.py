"""Augmented link diagrams, exact Dehn-filling bookkeeping, circle packings
and hyperbolic cusp geometry for reflection-symmetric augmented links.

The combinatorial layers load with the package; the names of `families`,
`geometry` and `packing` load on first use (PEP 562), so that a caller that
never measures never imports numpy."""

from importlib import import_module

from .augment import (
    AugmentedLink,
    CrossingCircle,
    Passage,
    apply_filling,
    augment,
    untwist_retwist_roundtrip,
)
from .diagram import (
    Diagram,
    FaceMap,
    TwistRegion,
    canonical_pd,
    compute_faces,
    detect_twist_regions,
    parse_diagram,
    pd_isomorphic,
    validate_generalized_region,
)
from .errors import (
    AugcuspError,
    ConvergenceError,
    DiagramInvariantError,
    MeasuringError,
    PDSyntaxError,
    ReducibleDiagramWarning,
    UnsupportedLinkError,
)

# Name -> defining module, for the names loaded on first use: families imports
# catalog, and geometry and packing import numpy.  A resolved name is cached
# in the module globals, so __getattr__ runs once per name.
_LAZY = {
    **dict.fromkeys(
        ("fal_corpus", "gen_longitude_family", "gen_twobridge_family",
         "three_punctured_certificate", "twobridge_filled"),
        "families",
    ),
    **dict.fromkeys(
        ("CuspShape", "analyze_cusp", "assemble", "cusp_shape", "maximal_cusp",
         "verify_meridian_bound"),
        "geometry",
    ),
    **dict.fromkeys(
        ("CirclePacking", "FrameBlock", "Nerve", "build_nerve", "normalize_at_vertex",
         "solve_flower_radii", "solve_packing"),
        "packing",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if module == "packing":
        # geometry imports packing: entered there, both compile before numpy
        # loads (see the note in geometry.py).
        import_module(".geometry", __name__)
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "AugcuspError",
    "AugmentedLink",
    "ConvergenceError",
    "CrossingCircle",
    "Diagram",
    "DiagramInvariantError",
    "FaceMap",
    "MeasuringError",
    "PDSyntaxError",
    "Passage",
    "ReducibleDiagramWarning",
    "TwistRegion",
    "UnsupportedLinkError",
    "apply_filling",
    "augment",
    "canonical_pd",
    "compute_faces",
    "detect_twist_regions",
    "parse_diagram",
    "pd_isomorphic",
    "untwist_retwist_roundtrip",
    "validate_generalized_region",
    *_LAZY,
]
