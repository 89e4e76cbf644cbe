"""Exception types shared across the package."""


class LinalgError(ValueError):
    """Bad matrix input: wrong shape, bad index set, singular or defective matrix."""


class DomainError(ValueError):
    """Input outside an operation's domain of definition (chart, cone, boundary)."""


class CertificationError(RuntimeError):
    """A constructed object failed its positivity certification."""


class DriftError(RuntimeError):
    """The flow integrator's error tolerance is below what double precision can
    meet: a rejected step's share of tol is under the rounding of the step's
    result, or the step has shrunk to 2**-12 of the first step."""
