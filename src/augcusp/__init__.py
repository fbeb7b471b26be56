"""Augmented link diagrams, exact Dehn-filling bookkeeping, circle packings
and hyperbolic cusp geometry for reflection-symmetric augmented links."""

from .augment import (
    AugmentedLink,
    CrossingCircle,
    Passage,
    SlopeLedger,
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
from .families import (
    fal_corpus,
    gen_longitude_family,
    gen_twobridge_family,
    three_punctured_certificate,
    twobridge_filled,
    twobridge_filled_strand_counts,
)
from .geometry import (
    CuspShape,
    analyze_cusp,
    assemble,
    cusp_shape,
    maximal_cusp,
    verify_meridian_bound,
)
from .packing import (
    CirclePacking,
    FrameBlock,
    Nerve,
    build_nerve,
    normalize_at_vertex,
    solve_flower_radii,
    solve_packing,
)

__version__ = "0.1.0"

__all__ = [
    "AugcuspError",
    "AugmentedLink",
    "CirclePacking",
    "ConvergenceError",
    "CrossingCircle",
    "CuspShape",
    "Diagram",
    "DiagramInvariantError",
    "FaceMap",
    "FrameBlock",
    "MeasuringError",
    "Nerve",
    "PDSyntaxError",
    "Passage",
    "ReducibleDiagramWarning",
    "SlopeLedger",
    "TwistRegion",
    "UnsupportedLinkError",
    "analyze_cusp",
    "apply_filling",
    "assemble",
    "augment",
    "build_nerve",
    "canonical_pd",
    "compute_faces",
    "cusp_shape",
    "detect_twist_regions",
    "fal_corpus",
    "gen_longitude_family",
    "gen_twobridge_family",
    "maximal_cusp",
    "normalize_at_vertex",
    "parse_diagram",
    "pd_isomorphic",
    "solve_flower_radii",
    "solve_packing",
    "three_punctured_certificate",
    "twobridge_filled",
    "twobridge_filled_strand_counts",
    "untwist_retwist_roundtrip",
    "validate_generalized_region",
    "verify_meridian_bound",
]
