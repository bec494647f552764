"""Phase-space gradients and canonical Poisson brackets.

Certificates bracket gradient rows (F, dF/dr, dF/dphi, dF/dp_r, dF/dp_phi)
traced once per function by `tracing.gradient_row`, combined in plain
floats by `row_bracket` and `row_residual`.  The dual path below (one
forward dual-number pass per gradient, exact to roundoff) is their oracle:
the row functions repeat its float operations in its order, so the two
agree bit for bit.  Central finite differences with per-coordinate steps
are the independent oracle of the cross-validation suite.
"""

import sys
from dataclasses import dataclass

from .dual import seed, tangent, value
from .errors import StepTooSmall

EPS = sys.float_info.epsilon
FD_STEP_FACTOR = EPS ** (1.0 / 3.0)
BRACKET_TOL = 1e-10


@dataclass(frozen=True)
class PhaseGradient:
    dF_dr: float
    dF_dphi: float
    dF_dpr: float
    dF_dpphi: float

    def as_tuple(self):
        return (self.dF_dr, self.dF_dphi, self.dF_dpr, self.dF_dpphi)


def gradient(F, params, point):
    """Exact partials of F at a phase point, one dual pass."""
    r, phi, p_r, p_phi = seed(*point.as_tuple())
    out = F(params, r, phi, p_r, p_phi)
    t = tangent(out)
    return PhaseGradient(*t)


def bracket_value(F, G, params, r, phi, p_r, p_phi):
    """{F, G} over generic scalar coordinates.

    Seeding on top of incoming duals nests cleanly, so brackets of brackets
    (Jacobi tests, evolution laws for products) need no extra machinery.
    """
    rs, ps, prs, pps = seed(r, phi, p_r, p_phi)
    ft = tangent(F(params, rs, ps, prs, pps))
    gt = tangent(G(params, rs, ps, prs, pps))
    return ((ft[0] * gt[2] - ft[2] * gt[0])
            + (ft[1] * gt[3] - ft[3] * gt[1]))


def poisson_bracket(F, G, params, point):
    return bracket_value(F, G, params, *point.as_tuple())


def _fd_steps(point, h):
    coords = point.as_tuple()
    if h is None:
        return tuple(max(1.0, abs(c)) * FD_STEP_FACTOR for c in coords)
    if h <= 0.0:
        raise StepTooSmall(f"h = {h}")
    floor = 64.0 * EPS * max(1.0, *(abs(c) for c in coords))
    if h < floor:
        raise StepTooSmall(f"h = {h} below {floor:.3e}")
    return (h, h, h, h)


def gradient_fd(F, params, point, h=None):
    """Central-difference gradient; the independent oracle for `gradient`."""
    steps = _fd_steps(point, h)
    coords = list(point.as_tuple())
    parts = []
    for i, step in enumerate(steps):
        hi = list(coords)
        lo = list(coords)
        hi[i] += step
        lo[i] -= step
        parts.append((F(params, *hi) - F(params, *lo)) / (2.0 * step))
    return PhaseGradient(*parts)


def poisson_bracket_fd(F, G, params, point, h=None):
    gf = gradient_fd(F, params, point, h)
    gg = gradient_fd(G, params, point, h)
    return ((gf.dF_dr * gg.dF_dpr - gf.dF_dpr * gg.dF_dr)
            + (gf.dF_dphi * gg.dF_dpphi - gf.dF_dpphi * gg.dF_dphi))


def bracket_scale(f_val, g_val, point):
    """Residual normalization: max(1, max(|F|,|G|)) times momentum scale^2.

    Integrals grow like r to large powers near the box edges and like
    1/distance^2 near angular poles; a plain absolute tolerance would
    misfire there while this scale tracks the roundoff actually incurred.
    """
    p_scale = max(1.0, abs(point.p_r), abs(point.p_phi))
    return max(1.0, abs(value(f_val)), abs(value(g_val))) * p_scale * p_scale


def scaled_residual(F, G, params, point):
    """|{F, G}| divided by bracket_scale, with F, G evaluated at the point."""
    coords = point.as_tuple()
    f_val = value(F(params, *coords))
    g_val = value(G(params, *coords))
    res = poisson_bracket(F, G, params, point)
    return abs(res) / bracket_scale(f_val, g_val, point)


def row_bracket(f_row, g_row):
    """{F, G} from two gradient rows, in the order of `bracket_value`."""
    return ((f_row[1] * g_row[3] - f_row[3] * g_row[1])
            + (f_row[2] * g_row[4] - f_row[4] * g_row[2]))


def row_residual(f_row, g_row, point):
    """`scaled_residual` from two gradient rows at `point`."""
    return abs(row_bracket(f_row, g_row)) / bracket_scale(
        f_row[0], g_row[0], point)
