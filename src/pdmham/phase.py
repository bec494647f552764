"""Canonical polar phase points, model parameters, and guarded sampling
into one (N, 4) float64 array of draws (`sample_draws`)."""

import itertools
import math
from dataclasses import dataclass

from .catalog import CATALOG
from .errors import PdmError

_HALF_PI = 0.5 * math.pi

# closest approach of u = k_n*phi to an angular pole that a state may make
POLE_MARGIN = 1e-6
# the radial range and the momentum bound |p_r|, |p_phi| <= P_MAX of every
# sampling box
R_MIN = 0.5
R_MAX = 2.0
P_MAX = 2.0


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
            raise PdmError(f"unknown family {self.family!r}")
        for name in ("n", "k0", "k1", "k2"):
            if not math.isfinite(value := getattr(self, name)):
                raise PdmError(f"{name} must be finite, got {value}")
        if CATALOG[self.family].degenerate_at_n1 and self.n == 1.0:
            raise PdmError("n = 1 degenerate (k_n = 0)")

    @property
    def k_n(self):
        return self.n - 1.0


@dataclass(frozen=True)
class DomainBox:
    """Sampling region with an exclusion margin around angular poles; r
    and the momenta range over R_MIN <= r <= R_MAX and |p| <= P_MAX.

    The margin is measured in the argument u = k_n*phi, where the singular
    loci are u-periodic; 1e-4 keeps pole-adjacent roundoff amplification
    (which grows like 1/distance) well below the bracket tolerances.
    """

    phi_min: float = 0.05
    phi_max: float = 2.0 * math.pi - 0.05
    phi_margin: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("phi_min", "phi_max", "phi_margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.phi_margin <= 0.0:
            raise ValueError("phi_margin must be positive")
        if self.phi_min >= self.phi_max:
            raise ValueError("empty coordinate ranges")


@dataclass(frozen=True)
class SampleConfig:
    count: int = 200
    box: DomainBox = DomainBox()

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be >= 1")


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
        if not math.isfinite(value := getattr(point, name)):
            raise PdmError(f"{name} must be finite, got {value}")
    if point.r <= 0.0:
        raise PdmError(f"r = {point.r}")
    try:
        d = singular_distance(params.family, params.n, point.phi)
    except ValueError:
        # math.remainder refuses an infinite k_n*phi
        raise PdmError(f"k_n*phi = (n - 1)*phi overflows at n = {params.n}"
                       ) from None
    if d <= phi_margin:
        raise PdmError(
            f"k_n*phi within {phi_margin} of an angular pole (distance {d:.3e})")


def sample_points(params, box, count):
    """`sample_draws` as a list of PhasePoints."""
    draws = sample_draws(params, box, count)
    return [PhasePoint(*d) for d in draws.tolist()]


def sample_draws(params, box, count):
    """Draw `count` valid points (r, phi, p_r, p_phi) as the rows of one
    float64 array, rejection sampling from a seeded generator.

    Deterministic for a fixed box seed.  Candidates are drawn a round of
    max(100, count) at a time, which gives the same stream as one draw per
    coordinate.  Raises PdmError when the guards reject an entire budget
    of ten rounds.
    """
    import numpy as np
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(box.seed)
    low = (R_MIN, box.phi_min, -P_MAX, -P_MAX)
    high = (R_MAX, box.phi_max, P_MAX, P_MAX)
    rounds, size = 10, max(100, count)
    kept = np.empty((0, 4))
    for _ in range(rounds):
        draws = rng.uniform(low, high, size=(size, 4))
        try:
            new = draws[_valid(params, draws, box.phi_margin)]
        except PdmError:
            # check_point raises on an infinite k_n*phi once it gets there
            new = np.reshape(list(itertools.islice((d for d in draws if _valid(
                params, d[None], box.phi_margin)[0]), count - len(kept))),
                (-1, 4))
        kept = np.concatenate([kept, new[:count - len(kept)]])
        if len(kept) == count:
            return kept
    raise PdmError(
        f"{len(kept)}/{count} valid points after {rounds * size} draws")


def _pole_distance(u, n):
    """abs(math.remainder(u, pi)) of each element, by the exact fold of
    fmod (pi - a is exact for a >= pi/2); an infinity, which
    math.remainder refuses, raises the PdmError of `check_point` at n."""
    import numpy as np
    if np.isinf(u).any():
        raise PdmError(f"k_n*phi = (n - 1)*phi overflows at n = {n}")
    a = np.abs(np.fmod(u, math.pi))
    return np.where(a > _HALF_PI, math.pi - a, a)


def _valid(params, draws, phi_margin):
    """Where `check_point` passes the (r, phi, p_r, p_phi) rows of `draws`,
    by its operations on the columns; it raises as that does."""
    import numpy as np
    with np.errstate(all="ignore"):
        ok = np.isfinite(draws).all(1) & (draws[:, 0] > 0.0)
        u = (params.n - 1.0) * draws[ok, 1]
        far = np.ones(len(u), bool)
        for kind in CATALOG[params.family].poles:
            offset = 0.0 if kind == "sin" else _HALF_PI
            far &= _pole_distance(u - offset, params.n) > phi_margin
    ok[ok] = far
    return ok

