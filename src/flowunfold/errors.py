"""Exception types shared across the package."""


class FlowUnfoldError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(FlowUnfoldError):
    """Two arrays that must agree in shape do not."""

    @classmethod
    def mismatch(cls, what, got, expected):
        return cls(f"{what}: got shape {tuple(got)}, expected {tuple(expected)}")


class SingularMatrixError(FlowUnfoldError):
    """A matrix that must be invertible is numerically singular."""


class ConfigError(FlowUnfoldError):
    """Invalid configuration: unknown key, bad value, or impossible architecture."""


class CheckpointError(FlowUnfoldError):
    """Checkpoint file is malformed or does not match the configured model."""


class DataError(FlowUnfoldError):
    """Dataset directory is missing, empty, or inconsistent."""


class GradCheckError(FlowUnfoldError):
    """Gradient checking hit a non-finite objective value."""


class TrainingError(FlowUnfoldError):
    """Training cannot go on: a train or val loss is non-finite, a 1x1 conv
    weight is singular, or a parameter is non-finite after an Adam step."""
