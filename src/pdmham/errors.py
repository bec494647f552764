"""Exception types shared across the package.

Every domain fault is a `PdmError`; a subclass exists only where the
program catches that fault by name."""


class PdmError(Exception):
    """Base class for every domain error raised by this package."""


class NoQuadraticIntegral(PdmError):
    pass


class EmptyTrajectory(PdmError):
    pass
