"""The traced field, monitor row, monitor term sizes and gradient rows
against their dual and float oracles."""

import ast
import math
import re
import struct
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import KINETIC, gradient
from pdmham import tracing
from pdmham.brackets import poisson_bracket, row_bracket, scaled_residual
from pdmham.catalog import CATALOG
from pdmham.certify import (_certificate_rows, _columns, _probe_rows,
                            _residuals, certificate)
from pdmham.dual import seed, tangent
from pdmham.families import hamiltonian
from pdmham.observables import corruption, integral
from pdmham.dynamics import IntegratorConfig
from pdmham.phase import DomainBox, ModelParams, SampleConfig, sample_points
from pdmham.tracing import (column_trace, compile_traced, gradient_row,
                            identity_pairs, monitor_terms, monitors,
                            value_row, vector_field)

CASES = [(family, n) for family in CATALOG
         for n in (-1.0, 0.0, 0.5, 2.0, 3.0)]


def _own(kind, params, fn):
    """The key's own trace: the column trace of that key alone."""
    trace, _ = column_trace(((kind, params, fn),))
    return trace


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
        compile_traced(branching, "branching")


def test_each_trace_compiles_under_its_own_file_name():
    # profilers key functions by (file, line, name), so traces that shared
    # a file name would merge into one entry
    params = ModelParams("na", 2.0, 0.5, 0.25, 0.125)
    other = replace(params, k2=0.5)
    h = integral("na", "H")
    traced = [vector_field(params), vector_field(other),
              monitors(params)[1], monitor_terms(params),
              _own(gradient_row, params, h), _own(gradient_row, other, h),
              _own(gradient_row, params, corruption(h, params, "momentum")),
              _own(gradient_row, params, integral("na", "Ja2"))]
    names = [fn.__code__.co_filename for fn in traced]
    assert len(set(names)) == len(names)
    assert all(name.startswith("<traced ") for name in names)


def _row_functions(params):
    """(row params, function, corrupted) for every gradient row the
    certificate brackets: H, T and each bound integral, both corrupted
    variants of each, the Killing parts (couplings zeroed) and the parts
    of each complex factor."""
    fam = CATALOG[params.family]
    zeroed = replace(params, k0=0.0, k1=0.0, k2=0.0)
    plain = [integral(params.family, "H"), KINETIC] + [
        integral(params.family, name) for name in fam.integrals]
    out = [(params, fn, False) for fn in plain]
    out += [(params, corruption(obs, params, part), True)
            for obs in fam.bound for part in ("momentum", "radial")]
    out += [(zeroed, fn, False) for fn in plain]
    factors = [pair for _, pair, _ in fam.laws]
    if fam.conserved_product:
        factors.append(fam.conserved_product)
    out += [(params, fn, False) for pair in factors for fn in pair]
    return out


ROW_CASES = [(family, n) for family in CATALOG for n in (-1.0, 0.5, 2.0, 3.0)]


@pytest.mark.parametrize("family,n", ROW_CASES)
def test_columnar_rows_equal_pointwise_rows_bit_for_bit(family, n):
    # one trace serves columns and single points: every column's bytes
    # must be the floats the trace gives point by point, with no numpy
    # flag raised (which would send the certificate to its fallback)
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    points = sample_points(params, DomainBox(seed=6), 200)
    columns = [np.array(c) for c in zip(*(pt.as_tuple() for pt in points))]
    # and one merged trace of every row, as a certificate runs them,
    # gives each row's columns too (it raises where numpy flags)
    cols = _columns(params, None, points)
    cols.prefetch(tuple(dict.fromkeys(
        (gradient_row, row_params, key)
        for row_params, key, _ in _row_functions(params))))
    for row_params, key, _ in _row_functions(params):
        row = _own(gradient_row, row_params, key)
        with np.errstate(all="raise", under="ignore"):
            got = row(*columns)
        merged = cols.memo[gradient_row, row_params, key]
        want = zip(*(row(*pt.as_tuple()) for pt in points))
        for column, shared, floats in zip(got, merged, want):
            column = np.broadcast_to(np.asarray(column, float), len(points))
            assert column.tobytes() == struct.pack(
                f"{len(points)}d", *floats), key
            assert shared.tobytes() == column.tobytes(), key


@pytest.mark.parametrize("family,n", ROW_CASES)
def test_row_brackets_equal_dual_brackets(family, n):
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    functions = _row_functions(params)
    points = [pt for box_seed in (3, 4)
              for pt in sample_points(params, DomainBox(seed=box_seed), 20)]
    cols = _columns(params, None, points)
    for row_params, fn, _ in functions:
        row = _own(gradient_row, row_params, fn)
        h_row = _own(gradient_row, row_params, integral(family, "H"))
        # the certificate's columnar reduction, at each point
        residuals = _residuals(row_params, fn, cols)
        for pt, residual in zip(points, residuals.tolist()):
            y = pt.as_tuple()
            f, h = row(*y), h_row(*y)
            assert f == (fn(row_params, *y),) + gradient(
                fn, row_params, pt)
            assert row_bracket(f, h) == poisson_bracket(
                fn, hamiltonian, row_params, pt)
            assert residual == scaled_residual(
                fn, hamiltonian, row_params, pt)
    # the pairs of involution and algebra checks
    plain = [fn for row_params, fn, corrupted in functions
             if row_params is params and not corrupted]
    for i, fn_a in enumerate(plain):
        for fn_b in plain[i + 1:]:
            residuals = _residuals(params, fn_a, cols, fn_b)
            for pt, residual in zip(points, residuals.tolist()):
                assert residual == scaled_residual(fn_a, fn_b, params, pt)


# the float classes the rewrites must keep: signed zeros, infinities, NaN,
# subnormals and the extremes, drawn explicitly, then any float at all
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072009e-308, -1.5e-310, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True,
                             allow_subnormal=True))


def _same(a, b):
    """Bit for bit, except that any NaN equals any NaN."""
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


def _rewritten(r, phi, p_r, p_phi):
    return (r ** 0.0, r ** 1.0, p_r ** 0.0, r * phi, phi * r, r + phi,
            phi + r, 2.5 * r, r * 2.5, p_r + 3.0, 3.0 + p_r)


def _sources(build):
    """The source text of every trace that build() compiles."""
    sources = []

    def spy(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracing, "compile", spy, raising=False)
        build()
    return sources


_REWRITTEN = compile_traced(_rewritten, "rewrites")


@settings(max_examples=500, deadline=None)
@given(r=FLOATS, phi=FLOATS, p_r=FLOATS)
def test_trace_rewrites_are_exact_on_every_float(r, phi, p_r):
    # x ** 0.0 -> 1.0, x ** 1.0 -> x and one operand order for + and *
    # give the floats plain Python gives
    got = _REWRITTEN(r, phi, p_r, 0.0)
    want = _rewritten(r, phi, p_r, 0.0)
    assert all(map(_same, got, want)), (got, want)


def test_powers_of_zero_and_one_and_commuted_repeats_leave_no_line():
    source, = _sources(lambda: compile_traced(_rewritten, "rewrites"))
    body = source.splitlines()[1:-1]
    assert sorted(line.split(" = ")[1] for line in body) == [
        "2.5 * r", "3.0 + p_r", "phi * r", "phi + r"]
    assert source.splitlines()[-1].startswith("    return (1.0, r, 1.0, ")


_ZERO_OR_UNIT_POWER = re.compile(
    r"\*\* (\(-0\.0\)|0\.0|1\.0)$"
    r"|elementwise\(pow, \S+, (\(-0\.0\)|0\.0|1\.0)\)$")


def _family_traces(params):
    """Every trace `integrate` and `pdm check` compile at params: a
    certificate's merged trace, its negative control's probe, and each
    key's own."""
    fam = CATALOG[params.family]
    vector_field.__wrapped__(params)
    monitors.__wrapped__(params)
    monitor_terms.__wrapped__(params)
    points = sample_points(params, DomainBox(seed=3), 20)
    column_trace.__wrapped__(tuple(dict.fromkeys(_certificate_rows(
        params, _columns(params, None, points)))))
    column_trace.__wrapped__(tuple(_probe_rows(params, None)))
    keys = [(gradient_row, row_params, fn)
            for row_params, fn, _ in _row_functions(params)]
    keys += [(identity_pairs, params, fn) for _, fn in fam.identities]
    keys += [(value_row, params, fn) for fn in (
        [rhs for *_, rhs in fam.algebra] + [rate for *_, rate in fam.laws])]
    for key in keys:
        column_trace.__wrapped__((key,))


@pytest.mark.parametrize("family,n", CASES)
def test_no_trace_has_a_zero_or_unit_power_or_a_commuted_repeat(family, n):
    # every operation, nested in an expression or a line of its own, keyed
    # by its operands' source, in sorted order for + and *
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    sources = _sources(lambda: _family_traces(params))
    assert len(sources) > 3
    for source in sources:
        for line in source.splitlines()[1:-1]:
            assert not _ZERO_OR_UNIT_POWER.search(line), line
        seen = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.BinOp):
                operands = [ast.unparse(node.left), ast.unparse(node.right)]
                if isinstance(node.op, (ast.Add, ast.Mult)):
                    operands.sort()
                key = (type(node.op), *operands)
                assert key not in seen, ast.unparse(node)
                seen.add(key)


def _can_raise(node):
    """/ (ZeroDivisionError), ** (OverflowError), sin and cos (ValueError)
    and abs of a complex (OverflowError)."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.Div, ast.Pow))
    return isinstance(node, ast.Call)


@pytest.mark.parametrize("family,n", CASES)
def test_float_traces_nest_only_single_reads_that_cannot_raise(family, n):
    # each operation that can raise is a statement of its own, so they run
    # in tape order; every other local is read at least twice
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    sources = _sources(lambda: (vector_field.__wrapped__(params),
                                monitors.__wrapped__(params)))
    assert len(sources) == 2
    for source in sources:
        tree = ast.parse(source)
        *body, _ = tree.body[0].body
        reads = Counter(node.id for node in ast.walk(tree)
                        if isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load))
        statements = {id(line.value) for line in body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                assert node.func.id in ("sin", "cos", "abs"), ast.unparse(node)
            if _can_raise(node):
                assert id(node) in statements, ast.unparse(node)
        for line in body:
            name, = line.targets
            assert reads[name.id] >= 2 or _can_raise(line.value), (
                ast.unparse(line))


_NA = ModelParams("na", 2.0, 0.7, 0.3, -0.2)
_ND = ModelParams("nd", 3.0, -1.0, 0.5, -0.3)


@pytest.mark.parametrize("trace", [vector_field, lambda p: monitors(p)[1]],
                         ids=["field", "monitors"])
@pytest.mark.parametrize("params,y,error,message", [
    (_NA, (0.0, 0.5, 0.1, 1.0), ZeroDivisionError, "float division by zero"),
    (_NA, (1.0, math.inf, 0.1, 1.0), ValueError, "math domain error"),
    (_ND, (1e200, 0.5, 0.0, 1.0), OverflowError,
     "(34, 'Numerical result out of range')"),
], ids=["na r=0", "na phi=inf", "nd r=1e200"])
def test_first_exception_of_a_float_trace(trace, params, y, error, message):
    # the operations that can raise run in tape order, whatever is nested
    # between them, so a point that fails two of them raises the first
    with pytest.raises(error) as info:
        trace(params)(*y)
    assert type(info.value) is error and str(info.value) == message


def test_negative_base_gives_the_same_complex_values():
    # at r < 0 a fractional power of r is complex, and so is every value
    # computed from it
    params = ModelParams("nc1", 0.5, 0.7, 0.3, -0.2)
    y = (-1.0, 0.5, 0.1, 1.0)
    assert repr(vector_field(params)(*y)) == (
        "(-0.1, -1.0, (2.2303330913975032+0.35j), -6.391917869162653)")
    assert repr(monitors(params)[1](*y)) == (
        "((-2.240333091397503-0.7j), 4.470666182795006, "
        "(-0.6782386951974514+4.106943601906339j))")


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_every_column_trace_takes_the_four_coordinates(family, monkeypatch):
    # the certificate's merged trace, and `monitor_terms` for its drift
    # check, take (r, phi, p_r, p_phi) and nothing else; couplings no
    # other test uses, so that every trace compiles here
    params = ModelParams(family, 2.0, 0.7, 0.3, -0.2375)
    compiled = []
    real = tracing.compile_traced

    def spy(fn, label, columns=False):
        traced = real(fn, label, columns)
        if columns:
            compiled.append((label, traced))
        return traced

    monkeypatch.setattr(tracing, "compile_traced", spy)
    certificate(params, SampleConfig(count=40), IntegratorConfig(t_end=0.5))
    labels = [label for label, _ in compiled]
    assert f"monitor_terms {params}" in labels
    assert any(label.startswith("gradient_row H ") and " more" in label
               for label in labels), labels
    for _, traced in compiled:
        code = traced.__code__
        assert code.co_varnames[:code.co_argcount] == (
            "r", "phi", "p_r", "p_phi")
        assert traced.__defaults__ is None and code.co_kwonlyargcount == 0
