"""The traced field, monitor row, monitor term sizes and gradient rows
against their dual and float oracles."""

from dataclasses import replace

import numpy as np
import pytest

from pdmham.brackets import (gradient, poisson_bracket, row_bracket,
                             row_residual, scaled_residual)
from pdmham.catalog import CATALOG
from pdmham.dual import seed, tangent
from pdmham.families import hamiltonian
from pdmham.observables import corruption, integral
from pdmham.phase import DomainBox, ModelParams, sample_points
from pdmham.tracing import (compile_traced, gradient_row, monitor_terms,
                            monitors, vector_field)

CASES = [(family, n) for family in CATALOG
         for n in (-1.0, 0.0, 0.5, 2.0, 3.0)]


def _points(params):
    return [pt.as_tuple() for box_seed in (3, 4)
            for pt in sample_points(params, DomainBox(seed=box_seed), 20)]


@pytest.mark.parametrize("family,n", CASES)
def test_traced_field_equals_dual_field(family, n):
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    field = vector_field(params)
    for y in _points(params):
        t = tangent(hamiltonian(params, *seed(*y)))
        assert field(*y) == (t[2], t[3], -t[0], -t[1])


@pytest.mark.parametrize("family,n", CASES)
def test_traced_monitors_equal_float_integrals(family, n):
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    names, row = monitors(params)
    assert names == ("H",) + CATALOG[family].integrals
    for y in _points(params):
        assert row(*y) == tuple(integral(family, name)(params, *y)
                                for name in names)


@pytest.mark.parametrize("family,n", CASES)
def test_monitor_terms_are_the_coupling_parts(family, n):
    # each monitor is linear in (k0, k1, k2): its value is the sum of its
    # part at couplings zeroed and one part per coupling, and the term size
    # is the sum of their magnitudes
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    zero = replace(params, k0=0.0, k1=0.0, k2=0.0)
    alone = (replace(zero, k0=0.7), replace(zero, k1=0.3),
             replace(zero, k2=-0.2))
    names, row = monitors(params)
    sizes = monitor_terms(params)
    for y in _points(params):
        for name, value, size in zip(names, row(*y), sizes(*y)):
            fn = integral(family, name)
            base = fn(zero, *y)
            parts = [fn(p, *y) - base for p in alone]
            assert size == abs(base) + sum(abs(part) for part in parts)
            assert abs(value - base - sum(parts)) <= 1e-14 * max(1.0, size)


def test_numpy_scalar_couplings_trace_to_float_literals():
    params = ModelParams("nb", np.float64(2.0), *np.array([0.7, 0.3, -0.2]))
    field = vector_field.__wrapped__(params)    # bypass the shared cache
    for y in _points(params):
        t = tangent(hamiltonian(params, *seed(*y)))
        assert field(*y) == (t[2], t[3], -t[0], -t[1])


@pytest.mark.parametrize("branching", [
    lambda r, phi, p_r, p_phi: (r if r > 1.0 else -r,),
    lambda r, phi, p_r, p_phi: (p_r * p_r if phi else p_phi,),
    lambda r, phi, p_r, p_phi: (r if r == 1.0 else phi,),
])
def test_branching_on_a_traced_value_fails_at_trace_time(branching):
    with pytest.raises(TypeError, match="branched"):
        compile_traced(branching)


def _row_functions(params):
    """(row params, function, variant, oracle) for every gradient row the
    certificate brackets: H, T and each bound integral, both corrupted
    variants of each, the Killing parts (couplings zeroed) and the parts
    of each complex factor."""
    fam = CATALOG[params.family]
    zeroed = replace(params, k0=0.0, k1=0.0, k2=0.0)
    plain = [integral(params.family, name)
             for name in ("H", "T") + fam.integrals]
    out = [(params, fn, None, fn) for fn in plain]
    out += [(params, obs, part, corruption(obs, params, part))
            for obs in fam.bound for part in ("momentum", "radial")]
    out += [(zeroed, fn, None, fn) for fn in plain]
    factors = [pair for _, pair, _ in fam.laws]
    if fam.conserved_product:
        factors.append(fam.conserved_product)
    out += [(params, fn, None, fn) for pair in factors for fn in pair]
    return out


@pytest.mark.parametrize("family,n", [(family, n) for family in CATALOG
                                      for n in (-1.0, 0.5, 2.0, 3.0)])
def test_row_brackets_equal_dual_brackets(family, n):
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    functions = _row_functions(params)
    points = [pt for box_seed in (3, 4)
              for pt in sample_points(params, DomainBox(seed=box_seed), 20)]
    for row_params, key, variant, fn in functions:
        row = gradient_row(row_params, key, variant)
        h_row = gradient_row(row_params, integral(family, "H"))
        for pt in points:
            y = pt.as_tuple()
            f, h = row(*y), h_row(*y)
            assert f == (fn(row_params, *y),) + gradient(
                fn, row_params, pt).as_tuple()
            assert row_bracket(f, h) == poisson_bracket(
                fn, hamiltonian, row_params, pt)
            assert row_residual(f, h, pt) == scaled_residual(
                fn, hamiltonian, row_params, pt)
    # the pairs of involution and algebra checks
    plain = [fn for row_params, _, variant, fn in functions
             if row_params is params and variant is None]
    for i, fn_a in enumerate(plain):
        for fn_b in plain[i + 1:]:
            row_a = gradient_row(params, fn_a)
            row_b = gradient_row(params, fn_b)
            for pt in points:
                a, b = row_a(*pt.as_tuple()), row_b(*pt.as_tuple())
                assert row_residual(a, b, pt) == scaled_residual(
                    fn_a, fn_b, params, pt)
