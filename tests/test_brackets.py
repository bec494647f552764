"""Canonical bracket behavior, algebraic laws, FD oracle agreement."""

from functools import partial

import numpy as np
import pytest

from pdmham.brackets import (bracket_scale, bracket_value, gradient,
                             gradient_fd, poisson_bracket, poisson_bracket_fd,
                             scaled_residual)
from pdmham.dual import cos, sin
from pdmham.errors import StepTooSmall
from pdmham.families import hamiltonian
from pdmham.observables import integral
from pdmham.phase import DomainBox, ModelParams, PhasePoint, sample_points

PARAMS = ModelParams("na_prime", 2.0, 1.0, 0.5, 0.3)
POINT = PhasePoint(1.3, 0.8, 0.4, -0.7)


def proj(i):
    return lambda params, *coords: coords[i]


def test_canonical_pairs():
    r, phi, p_r, p_phi = (proj(i) for i in range(4))
    assert poisson_bracket(r, p_r, PARAMS, POINT) == pytest.approx(1.0)
    assert poisson_bracket(phi, p_phi, PARAMS, POINT) == pytest.approx(1.0)
    for f, g in ((r, phi), (r, p_phi), (phi, p_r), (p_r, p_phi)):
        assert poisson_bracket(f, g, PARAMS, POINT) == pytest.approx(0.0)


def test_antisymmetry():
    f = lambda params, r, phi, p_r, p_phi: r * r * p_phi + sin(phi) * p_r
    g = lambda params, r, phi, p_r, p_phi: p_r * p_r / r + cos(phi)
    ab = poisson_bracket(f, g, PARAMS, POINT)
    ba = poisson_bracket(g, f, PARAMS, POINT)
    assert ab == pytest.approx(-ba, rel=1e-14)
    assert ab != 0.0


def test_bilinearity():
    f = lambda params, r, phi, p_r, p_phi: r * p_r
    g = lambda params, r, phi, p_r, p_phi: phi * p_phi
    h = lambda params, r, phi, p_r, p_phi: r * r + p_phi * p_phi
    combo = lambda params, *c: 2.0 * f(params, *c) - 3.0 * g(params, *c)
    want = (2.0 * poisson_bracket(f, h, PARAMS, POINT)
            - 3.0 * poisson_bracket(g, h, PARAMS, POINT))
    assert poisson_bracket(combo, h, PARAMS, POINT) == pytest.approx(
        want, rel=1e-13)


def test_leibniz_rule():
    f = lambda params, r, phi, p_r, p_phi: r * p_phi
    g = lambda params, r, phi, p_r, p_phi: sin(phi) + p_r
    h = hamiltonian
    prod = lambda params, *c: f(params, *c) * g(params, *c)
    fv = f(PARAMS, *POINT.as_tuple())
    gv = g(PARAMS, *POINT.as_tuple())
    want = (fv * poisson_bracket(g, h, PARAMS, POINT)
            + gv * poisson_bracket(f, h, PARAMS, POINT))
    assert poisson_bracket(prod, h, PARAMS, POINT) == pytest.approx(
        want, rel=1e-12)


@pytest.mark.parametrize("fns", [
    (lambda p, r, phi, pr, pp: r * r,
     lambda p, r, phi, pr, pp: pr * pp,
     lambda p, r, phi, pr, pp: sin(phi)),
    (hamiltonian,
     integral("na_prime", "J2").fn,
     integral("na_prime", "J3").fn),
])
def test_jacobi_identity(fns):
    f, g, h = fns
    total = 0.0
    scale = 0.0
    for pt in sample_points(PARAMS, DomainBox(seed=6), 10):
        terms = (
            poisson_bracket(f, partial(bracket_value, g, h), PARAMS, pt),
            poisson_bracket(g, partial(bracket_value, h, f), PARAMS, pt),
            poisson_bracket(h, partial(bracket_value, f, g), PARAMS, pt),
        )
        norm = max(1.0, *(abs(t) for t in terms))
        total = max(total, abs(sum(terms)) / norm)
        scale = max(scale, norm)
    assert total <= 1e-8
    assert scale > 0.0


def test_fd_oracle_agreement_100_triples():
    # disagreement is measured against the bracket's natural scale
    # (max(1, |F|, |G|) times the momentum scale squared): integrals blow
    # up near angular poles and FD noise is proportional to that size
    rng = np.random.default_rng(7)
    families = ("na", "nb", "nc", "nd", "na_prime")
    worst = 0.0
    for i in range(100):
        family = families[i % len(families)]
        params = ModelParams(family, 2.0, 1.0, 0.5, 0.3)
        pt = sample_points(params, DomainBox(seed=100 + i), 1)[0]
        names = ("H",) + tuple(
            n for n in ("J2", "J3", "Ja1", "Jb2", "Jc2", "Jd2")
            if _binds(family, n))
        f = integral(family, names[rng.integers(len(names))])
        g = integral(family, names[rng.integers(len(names))])
        exact = poisson_bracket(f, g, params, pt)
        approx = poisson_bracket_fd(f, g, params, pt)
        coords = pt.as_tuple()
        scale = bracket_scale(f(params, *coords), g(params, *coords), pt)
        worst = max(worst, abs(exact - approx) / scale)
    assert worst <= 1e-5


def _binds(family, name):
    from pdmham.observables import family_integrals
    return name in family_integrals(family)


def test_gradient_matches_fd():
    got = gradient(hamiltonian, PARAMS, POINT)
    want = gradient_fd(hamiltonian, PARAMS, POINT)
    for a, b in zip(got.as_tuple(), want.as_tuple()):
        assert a == pytest.approx(b, rel=1e-7, abs=1e-9)


def test_fd_step_validation():
    with pytest.raises(StepTooSmall):
        gradient_fd(hamiltonian, PARAMS, POINT, h=0.0)
    with pytest.raises(StepTooSmall):
        gradient_fd(hamiltonian, PARAMS, POINT, h=1e-18)
    gradient_fd(hamiltonian, PARAMS, POINT, h=1e-6)


def test_conserved_integrals_have_tiny_residuals():
    for family, name in (("nc", "J2"), ("nd", "Jd2"), ("na", "Ja1")):
        params = ModelParams(family, 3.0, 1.0, 0.4, 0.2)
        obs = integral(family, name)
        for pt in sample_points(params, DomainBox(seed=8), 20):
            assert scaled_residual(obs, hamiltonian, params, pt) <= 1e-10


def test_scaled_residual_definition():
    f = integral("nc", "J2")
    params = ModelParams("nc", 2.0, 1.0, 0.0, 0.0)
    pt = POINT
    coords = pt.as_tuple()
    raw = abs(poisson_bracket(f, hamiltonian, params, pt))
    scale = bracket_scale(f(params, *coords),
                          hamiltonian(params, *coords), pt)
    assert scaled_residual(f, hamiltonian, params, pt) == pytest.approx(
        raw / scale, rel=1e-14)
    assert scale >= 1.0
