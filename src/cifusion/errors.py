"""Exception types shared across the package."""


class CiFusionError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(CiFusionError):
    """Operands have incompatible shapes."""


class NonFiniteError(CiFusionError):
    """An input holds a NaN or an infinity."""


class NotPsdError(CiFusionError):
    """A matrix failed positive-semidefinite certification."""

    def __init__(self, min_eig: float, message: str | None = None):
        self.min_eig = float(min_eig)
        super().__init__(message or f"matrix is not PSD (min eigenvalue {min_eig:.6g})")


class NotPdError(CiFusionError):
    """A matrix that must be positive definite is singular, indefinite or not symmetric."""


class InternalInconsistencyError(CiFusionError):
    """Two independent evaluation routes disagreed beyond tolerance."""


class StackedRankDeficientError(CiFusionError):
    """The stacked observation matrix of a pair does not reach full state rank."""


class SingularJointError(CiFusionError):
    """The joint covariance block matrix is not positive definite."""


class OutOfRangeError(CiFusionError):
    """A scalar parameter lies outside its admissible interval."""


class InvalidFamilyParameterError(CiFusionError):
    """The requested fusion-family weight is rejected by the case table."""

    def __init__(self, alpha: float, reason: str):
        self.alpha = float(alpha)
        self.reason = reason
        super().__init__(f"alpha={alpha:.6g} rejected: {reason}")


class SingularSigmaError(CiFusionError):
    """The blended information matrix is singular at the requested weight."""


class UnreachableError(CiFusionError):
    """No stacking of node observations reaches full state rank."""


class ScheduleError(CiFusionError):
    """A simulation schedule event cannot be executed."""

    def __init__(self, event_index: int, message: str):
        self.event_index = event_index
        super().__init__(f"event {event_index}: {message}")


class ProblemFileError(CiFusionError):
    """A problem file failed to parse or validate."""

    def __init__(self, path: str, message: str):
        self.json_path = path
        super().__init__(f"{path}: {message}")
