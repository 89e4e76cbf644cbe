"""Exception types shared across the package."""


class LinalgError(ValueError):
    """Bad matrix input: wrong shape, bad index set, singular or defective matrix."""


class DomainError(ValueError):
    """Input outside an operation's domain of definition (chart, cone, boundary)."""


class CertificationError(RuntimeError):
    """A constructed object failed its positivity certification."""


class DriftError(RuntimeError):
    """An integrator's error tolerance is below what double precision can meet."""
