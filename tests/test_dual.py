"""Dual-scalar arithmetic against hand derivatives and nesting checks."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import second_derivative
from pdmham import dual
from pdmham.dual import Dual, seed, tangent, value


def grad1(f, x0):
    """df/dx at x0 through slot 0."""
    out = f(Dual(x0, (1.0, 0.0, 0.0, 0.0)))
    return tangent(out)[0]


def test_seed_unit_tangents():
    r, phi, p_r, p_phi = seed(2.0, 0.3, -1.0, 0.5)
    assert value(r) == 2.0 and value(p_phi) == 0.5
    assert tangent(r) == (1.0, 0.0, 0.0, 0.0)
    assert tangent(phi) == (0.0, 1.0, 0.0, 0.0)
    assert tangent(p_r) == (0.0, 0.0, 1.0, 0.0)
    assert tangent(p_phi) == (0.0, 0.0, 0.0, 1.0)


def test_plain_scalar_helpers():
    assert value(3.5) == 3.5
    assert tangent(3.5) == (0.0, 0.0, 0.0, 0.0)
    assert dual.sin(0.0) == 0.0
    assert dual.cos(0.0) == 1.0


@pytest.mark.parametrize("f,df", [
    (lambda x: x * x * x, lambda x: 3.0 * x * x),
    (lambda x: 1.0 / x, lambda x: -1.0 / (x * x)),
    (lambda x: x ** 2.5, lambda x: 2.5 * x ** 1.5),
    (lambda x: 2.0 - x, lambda x: -1.0),
    (lambda x: 7.0 / x, lambda x: -7.0 / (x * x)),
    (dual.sin, math.cos),
    (dual.cos, lambda x: -math.sin(x)),
    (lambda x: dual.sin(x) / dual.cos(x), lambda x: 1.0 / math.cos(x) ** 2),
    (lambda x: x * dual.sin(x * x),
     lambda x: math.sin(x * x) + 2.0 * x * x * math.cos(x * x)),
])
def test_hand_derivatives(f, df):
    for x0 in (0.3, 1.0, 1.7):
        assert grad1(f, x0) == pytest.approx(df(x0), rel=1e-14, abs=1e-14)


def test_mixed_dual_dual_operations():
    x = Dual(2.0, (1.0, 0.0, 0.0, 0.0))
    y = Dual(3.0, (0.0, 1.0, 0.0, 0.0))
    prod = x * y
    assert prod.val == 6.0
    assert prod.tan == (3.0, 2.0, 0.0, 0.0)
    quot = x / y
    assert quot.val == pytest.approx(2.0 / 3.0)
    assert quot.tan[0] == pytest.approx(1.0 / 3.0)
    assert quot.tan[1] == pytest.approx(-2.0 / 9.0)
    diff = x - y
    assert diff.tan == (1.0, -1.0, 0.0, 0.0)
    s = 1.0 + x
    assert s.val == 3.0 and s.tan == x.tan
    n = -x
    assert n.val == -2.0 and n.tan == (-1.0, 0.0, 0.0, 0.0)


def _bits(*floats):
    return struct.pack(f"{len(floats)}d", *floats)


@pytest.mark.parametrize("x,c", [(3.0, 10.0), (-2.5, 0.3), (1e-300, 7.0),
                                 (-0.0, 4.0), (0.1, -3.0)])
def test_a_float_operand_gives_the_constant_duals_floats(x, c):
    # no formula subtracts a float from a Dual or divides a Dual by one:
    # both give the floats of the same operation with a constant Dual (a
    # zero tangent subtracts nothing), value x - c and x * (1 / c), which
    # for 3 / 10 is not x / c
    d = Dual(x, (1.0, 0.0, 2.5, -3.0))
    diff, quot = d - c, d / c
    assert _bits(diff.val) == _bits(x - c)
    assert _bits(*diff.tan) == _bits(*d.tan)
    assert _bits(quot.val) == _bits(x * (1.0 / c))
    assert _bits(*quot.tan) == _bits(*(a * (1.0 / c) for a in d.tan))
    for got, want in ((diff, d - Dual(c)), (quot, d / Dual(c))):
        assert _bits(got.val, *got.tan) == _bits(want.val, *want.tan)


def test_second_derivative_nesting():
    assert second_derivative(lambda x: x * x * x, 2.0) == pytest.approx(12.0)
    assert second_derivative(dual.sin, 0.7) == pytest.approx(-math.sin(0.7))
    assert second_derivative(lambda x: 1.0 / x, 2.0) == pytest.approx(0.25)
    assert second_derivative(
        lambda x: x ** 3.5, 1.5) == pytest.approx(3.5 * 2.5 * 1.5 ** 1.5)


finite = st.floats(min_value=0.2, max_value=3.0)


@settings(max_examples=100, deadline=None)
@given(finite, finite)
def test_product_rule_property(a, b):
    f = lambda x: (x + a) * dual.sin(b * x)
    df = lambda x: math.sin(b * x) + (x + a) * b * math.cos(b * x)
    x0 = 1.1
    assert grad1(f, x0) == pytest.approx(df(x0), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(finite)
def test_chain_rule_property(a):
    f = lambda x: dual.sin(x * x + a)
    df = lambda x: 2.0 * x * math.cos(x * x + a)
    x0 = 0.9
    assert grad1(f, x0) == pytest.approx(df(x0), rel=1e-12, abs=1e-12)


def test_nested_value_unwraps():
    nested = Dual(Dual(4.0, (1.0, 0.0, 0.0, 0.0)), (Dual(1.0), 0.0, 0.0, 0.0))
    assert value(nested) == 4.0
    assert value(dual.sin(nested)) == math.sin(4.0)


def test_repr_round_trips():
    d = Dual(1.5, (1.0, 0.0, 0.0, 0.0))
    assert "1.5" in repr(d)
