"""Canonical Poisson brackets of phase-space functions.

Certificates bracket gradient rows (F, dF/dr, dF/dphi, dF/dp_r, dF/dp_phi)
that `tracing.column_trace` compiles from `gradient_row` keys, as float64
columns over all sample points, combined by `row_bracket` and scaled by
`bracket_scale`; both take floats or columns alike.  The dual path below
(one forward dual-number pass per gradient, exact to roundoff) is their
oracle: the row functions repeat its float operations in its order, so
the two agree bit for bit.  The central-difference oracle of the
cross-validation suite lives with the tests, in `tests/oracles.py`.
"""

import numpy as np

from .dual import seed, tangent, value

BRACKET_TOL = 1e-10


def bracket_value(F, G, params, r, phi, p_r, p_phi):
    """{F, G} over generic scalar coordinates.

    Seeding on top of incoming duals nests cleanly, so brackets of brackets
    (the Jacobi test) need no extra machinery.
    """
    rs, ps, prs, pps = seed(r, phi, p_r, p_phi)
    ft = tangent(F(params, rs, ps, prs, pps))
    gt = tangent(G(params, rs, ps, prs, pps))
    return ((ft[0] * gt[2] - ft[2] * gt[0])
            + (ft[1] * gt[3] - ft[3] * gt[1]))


def poisson_bracket(F, G, params, point):
    return bracket_value(F, G, params, *point.as_tuple())


def bracket_scale(f_val, g_val, point):
    """Residual normalization: max(1, max(|F|,|G|)) times momentum scale^2.

    Integrals grow like r to large powers near the box edges and like
    1/distance^2 near angular poles; a plain absolute tolerance would
    misfire there while this scale tracks the roundoff actually incurred.
    Floats or columns: `np.fmax` skips a NaN as `max` does after 1.0.
    """
    p_scale = np.fmax(np.fmax(1.0, abs(point.p_r)), abs(point.p_phi))
    return np.fmax(np.fmax(1.0, abs(f_val)), abs(g_val)) * p_scale * p_scale


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

