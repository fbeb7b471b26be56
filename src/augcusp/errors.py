"""Exception types shared across the package."""


class AugcuspError(Exception):
    """Base of every error the package raises on purpose."""


class PDSyntaxError(AugcuspError, ValueError):
    """Malformed input text or JSON envelope (CLI exit code 2)."""


class DiagramInvariantError(AugcuspError, ValueError):
    """Structurally invalid diagram or annotation (CLI exit code 3)."""


class UnsupportedLinkError(AugcuspError, ValueError):
    """Link outside the class with explicit geometry (reported, not fatal)."""


class ConvergenceError(AugcuspError, RuntimeError):
    """Circle packing solver failed to reach tolerance (CLI exit code 4)."""

    def __init__(self, message: str, worst_residual: float):
        super().__init__(message)
        self.worst_residual = worst_residual


class MeasuringError(AugcuspError, ValueError):
    """A cusp frame that cannot be measured: not normalized at a cusp, or its
    picture at infinity does not close up (CLI exit code 3)."""


class ReducibleDiagramWarning(UserWarning):
    """Non-alternating bigon chain: the diagram admits a crossing reduction."""
