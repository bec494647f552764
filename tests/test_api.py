"""The package's public name list, and the call shapes the benchmark's
traced mode (`perfbench/spans.py`, `perfbench/run.py`) relies on."""

import inspect

import pytest

import pdmham
import pdmham.cli
from pdmham import (brackets, certify, dual, dynamics, families, geometry,
                    observables, phase)


def test_every_public_name_resolves():
    missing = [name for name in pdmham.__all__ if not hasattr(pdmham, name)]
    assert not missing


def test_public_names_are_unique():
    assert len(set(pdmham.__all__)) == len(pdmham.__all__)


_ = object()

# (callable, positional args, keyword args), in the shape the benchmark
# calls them
BENCH_CALLS = [
    (certify.bracket_residual_suite, (_, _, _), {}),
    (certify.involution_check, (_,), {"sample": _, "points": _}),
    (certify.independence_stats, (_, _), {"points": _}),
    (certify.killing_tensor_check, (_, _, _), {}),
    (certify.identity_suite, (_, _, _), {}),
    (certify.evolution_law_check, (_, _, _), {}),
    (certify.corruption_suite, (_, _, _), {}),
    (certify.certificate, (_, _), {}),
    (certify.certificate, (_, _, _), {}),
    (certify.SampleConfig, (), {"count": _, "box": _}),
    (observables.integral, (_, _), {}),
    (observables.family_integrals, (_,), {}),
    (families.hamiltonian, (_, _, _, _, _), {}),
    (dynamics.hamilton_vector_field, (_, _), {}),
    (dynamics.integrate, (_, _, _), {}),
    (dynamics.drift_report, (_,), {}),
    (dynamics.IntegratorConfig, (), {"t_end": _}),
    (dynamics.IntegratorConfig, (), {"t_end": _, "rtol": _, "atol": _}),
    (brackets.poisson_bracket, (_, _, _, _), {}),
    (brackets.scaled_residual, (_, _, _, _), {}),
    (geometry.noether_p1, (_, _, _, _, _), {}),
    (geometry.noether_p2, (_, _, _, _, _), {}),
    (dual.seed, (_, _, _, _), {}),
    (dual.Dual, (_, _), {}),
    (phase.sample_points, (_, _, _), {}),
    (phase.ModelParams, (_, _, _, _, _), {}),
    (phase.PhasePoint, (_, _, _, _), {}),
    (phase.DomainBox, (), {"seed": _}),
    (pdmham.cli.main, (_,), {}),
]


@pytest.mark.parametrize(
    "fn,args,kwargs", BENCH_CALLS,
    ids=[f"{fn.__module__}.{fn.__qualname__}/{len(args)}+{len(kwargs)}"
         for fn, args, kwargs in BENCH_CALLS])
def test_benchmark_calls_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


@pytest.mark.parametrize("name,owner", [
    ("integrate", dynamics), ("drift_report", dynamics),
    ("certificate", certify),
])
def test_cli_keeps_the_attributes_the_benchmark_patches(name, owner):
    # the traced mode replaces these attributes of `pdmham.cli` and
    # requires `cli.main` to call them
    assert getattr(pdmham.cli, name) is getattr(owner, name)
