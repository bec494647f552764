"""Canonical polar phase points, model parameters, and guarded sampling."""

import math
from dataclasses import dataclass

import numpy as np

from .catalog import CATALOG
from .errors import (AngularSingularity, DegenerateN, EmptyDomain, NonFinite,
                     RadiusNonPositive, UnknownFamily)

FAMILIES = tuple(CATALOG)

_HALF_PI = 0.5 * math.pi

# closest approach of u = k_n*phi to an angular pole that a state may make
POLE_MARGIN = 1e-6


@dataclass(frozen=True)
class PhasePoint:
    """One canonical state (r, phi, p_r, p_phi), r strictly positive."""

    r: float
    phi: float
    p_r: float
    p_phi: float

    def as_tuple(self):
        return (self.r, self.phi, self.p_r, self.p_phi)


@dataclass(frozen=True)
class CartesianPoint:
    x: float
    y: float
    p_x: float
    p_y: float


@dataclass(frozen=True)
class ModelParams:
    """A family tag with exponent n and couplings (k0, k1, k2).

    k_n = n - 1 is always derived from n, never stored.  n = 1 collapses
    every angular argument and is rejected for every family whose record
    sets `degenerate_at_n1`: all except the bare geodesic one.
    """

    family: str
    n: float
    k0: float = 0.0
    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self):
        if self.family not in CATALOG:
            raise UnknownFamily(self.family)
        for name in ("n", "k0", "k1", "k2"):
            if not math.isfinite(getattr(self, name)):
                raise NonFinite(name)
        if CATALOG[self.family].degenerate_at_n1 and self.n == 1.0:
            raise DegenerateN("n = 1 degenerate (k_n = 0)")

    @property
    def k_n(self):
        return self.n - 1.0

    def couplings(self):
        return (self.k0, self.k1, self.k2)


@dataclass(frozen=True)
class DomainBox:
    """Sampling region with an exclusion margin around angular poles.

    The margin is measured in the argument u = k_n*phi, where the singular
    loci are u-periodic; 1e-4 keeps pole-adjacent roundoff amplification
    (which grows like 1/distance) well below the bracket tolerances.
    """

    r_min: float = 0.5
    r_max: float = 2.0
    phi_min: float = 0.05
    phi_max: float = 2.0 * math.pi - 0.05
    p_max: float = 2.0
    phi_margin: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.phi_margin <= 0.0:
            raise ValueError("phi_margin must be positive")
        if self.phi_min >= self.phi_max or self.p_max <= 0.0:
            raise ValueError("empty coordinate ranges")


def singular_distance(family, n, phi):
    """Distance of u = k_n*phi from the family's nearest angular pole.

    Returns +inf for families whose potential has no angular poles.
    """
    kinds = CATALOG[family].poles
    if not kinds:
        return math.inf
    u = (n - 1.0) * phi
    best = math.inf
    for kind in kinds:
        offset = 0.0 if kind == "sin" else _HALF_PI
        d = abs(math.remainder(u - offset, math.pi))
        if d < best:
            best = d
    return best


def check_point(point, params, phi_margin=POLE_MARGIN):
    """Raise the specific domain error that makes `point` invalid, if any."""
    for name in ("r", "phi", "p_r", "p_phi"):
        if not math.isfinite(getattr(point, name)):
            raise NonFinite(name)
    if point.r <= 0.0:
        raise RadiusNonPositive(f"r = {point.r}")
    d = singular_distance(params.family, params.n, point.phi)
    if d <= phi_margin:
        raise AngularSingularity(
            f"k_n*phi within {phi_margin} of an angular pole (distance {d:.3e})")


def sample_points(params, box, count):
    """Draw `count` valid points, rejection sampling from a seeded generator.

    Deterministic for a fixed box seed.  Candidates (r, phi, p_r, p_phi)
    are drawn a round of max(100, count) at a time, which gives the same
    stream as one draw per coordinate.  Raises EmptyDomain when the guards
    reject an entire budget of ten rounds.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(box.seed)
    low = (box.r_min, box.phi_min, -box.p_max, -box.p_max)
    high = (box.r_max, box.phi_max, box.p_max, box.p_max)
    rounds, size = 10, max(100, count)
    points = []
    for _ in range(rounds):
        for draw in rng.uniform(low, high, size=(size, 4)).tolist():
            candidate = PhasePoint(*draw)
            try:
                check_point(candidate, params, box.phi_margin)
            except (NonFinite, RadiusNonPositive, AngularSingularity):
                continue
            points.append(candidate)
            if len(points) == count:
                return points
    raise EmptyDomain(
        f"{len(points)}/{count} valid points after {rounds * size} draws")


def polar_to_cartesian(point):
    """Canonical point transformation to (x, y, p_x, p_y)."""
    if point.r <= 0.0:
        raise RadiusNonPositive(f"r = {point.r}")
    c, s = math.cos(point.phi), math.sin(point.phi)
    pt = point.p_phi / point.r
    return CartesianPoint(
        x=point.r * c,
        y=point.r * s,
        p_x=point.p_r * c - pt * s,
        p_y=point.p_r * s + pt * c,
    )
