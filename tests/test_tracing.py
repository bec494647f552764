"""The traced field and monitor row against their dual and float oracles."""

import numpy as np
import pytest

from pdmham.catalog import CATALOG
from pdmham.dual import seed, tangent
from pdmham.families import hamiltonian
from pdmham.observables import integral
from pdmham.phase import DomainBox, ModelParams, sample_points
from pdmham.tracing import compile_traced, monitors, vector_field

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
        assert field(y) == (t[2], t[3], -t[0], -t[1])


@pytest.mark.parametrize("family,n", CASES)
def test_traced_monitors_equal_float_integrals(family, n):
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    names, row = monitors(params)
    assert names == ("H",) + CATALOG[family].integrals
    for y in _points(params):
        assert row(*y) == tuple(integral(family, name)(params, *y)
                                for name in names)


def test_numpy_scalar_couplings_trace_to_float_literals():
    params = ModelParams("nb", np.float64(2.0), *np.array([0.7, 0.3, -0.2]))
    field = vector_field.__wrapped__(params)    # bypass the shared cache
    for y in _points(params):
        t = tangent(hamiltonian(params, *seed(*y)))
        assert field(y) == (t[2], t[3], -t[0], -t[1])


@pytest.mark.parametrize("branching", [
    lambda r, phi, p_r, p_phi: (r if r > 1.0 else -r,),
    lambda r, phi, p_r, p_phi: (p_r * p_r if phi else p_phi,),
    lambda r, phi, p_r, p_phi: (r if r == 1.0 else phi,),
])
def test_branching_on_a_traced_value_fails_at_trace_time(branching):
    with pytest.raises(TypeError, match="branched"):
        compile_traced(branching)
