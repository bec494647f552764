"""Exception types shared across the package."""


class PdmError(Exception):
    """Base class for every domain error raised by this package."""


class UnknownFamily(PdmError):
    pass


class UnknownIntegral(PdmError):
    pass


class RadiusNonPositive(PdmError):
    pass


class AngularSingularity(PdmError):
    pass


class NonFinite(PdmError):
    pass


class DegenerateN(PdmError):
    pass


class EmptyDomain(PdmError):
    pass


class CartesianSingularity(PdmError):
    pass


class NonZeroN(PdmError):
    pass


class NoQuadraticIntegral(PdmError):
    pass


class EmptyTrajectory(PdmError):
    pass
