"""Regression guard for the d-family integral definitions.

The certified Jd2/Jd3 pair, the variant pair that swaps their momentum
monomials, and the reconstruction of both from the complex factor product
are documented in docs/FORMULA_ERRATA.md.  These tests pin the evidence.
"""

import numpy as np
import pytest

from pdmham import (
    DomainBox,
    ModelParams,
    hamiltonian,
    integral,
    sample_points,
    scaled_residual,
)
from pdmham.formulas import a_components, n_single, variant_jd2, variant_jd3

PARAMS = ModelParams("nd", 3.0, 1.0, 0.5, -0.3)


def _points(count=200, seed=11):
    box = DomainBox(phi_min=0.05, phi_max=np.pi - 0.05, phi_margin=0.05,
                    seed=seed)
    return sample_points(PARAMS, box, count)


def _factor(parts, pt):
    re, im = parts
    return complex(re(PARAMS, *pt.as_tuple()), im(PARAMS, *pt.as_tuple()))


def _worst_bracket(obs, points):
    worst = 0.0
    for pt in points:
        worst = max(worst, scaled_residual(obs, hamiltonian, PARAMS, pt))
    return worst


def test_certified_pair_conserved():
    pts = _points()
    assert _worst_bracket(integral("nd", "Jd2"), pts) <= 1e-10
    assert _worst_bracket(integral("nd", "Jd3"), pts) <= 1e-10


def test_variant_pair_not_conserved():
    pts = _points()
    assert _worst_bracket(variant_jd2, pts) > 1e-3
    assert _worst_bracket(variant_jd3, pts) > 1e-3


def test_anchor_point_separates_pairs():
    # r=1, phi=0, p_r=0, p_phi=1: certified Jd2 has the P2*p_phi monomial,
    # giving -1 - k0 = -2; the variant uses P1*p_phi = 0, giving -1.
    args = (1.0, 0.0, 0.0, 1.0)
    assert integral("nd", "Jd2")(PARAMS, *args) == pytest.approx(-2.0)
    assert variant_jd2(PARAMS, *args) == pytest.approx(-1.0)


def test_factorization_forces_certified_signs():
    # A * N = -Jd2 + i*Jd3 pointwise, so the conserved pair is determined
    # by the (separately verified) factor evolution laws.
    jd2 = integral("nd", "Jd2")
    jd3 = integral("nd", "Jd3")
    for pt in _points(count=300, seed=4):
        prod = _factor(a_components, pt) * _factor(n_single, pt)
        v2 = jd2(PARAMS, *pt.as_tuple())
        v3 = jd3(PARAMS, *pt.as_tuple())
        assert abs(-prod.real - v2) <= 1e-12 * max(1.0, abs(v2))
        assert abs(prod.imag - v3) <= 1e-12 * max(1.0, abs(v3))


def test_modulus_identity():
    jd2 = integral("nd", "Jd2")
    jd3 = integral("nd", "Jd3")
    for pt in _points(count=300, seed=9):
        mod2 = abs(_factor(a_components, pt)) ** 2
        rhs = jd2(PARAMS, *pt.as_tuple()) ** 2 + jd3(PARAMS, *pt.as_tuple()) ** 2
        assert abs(mod2 - rhs) <= 1e-12 * max(1.0, abs(rhs))
