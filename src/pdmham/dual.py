"""Forward-mode dual scalars with a four-slot tangent.

The slots track partials with respect to (r, phi, p_r, p_phi), one forward
pass per gradient.  Tangent entries use the same arithmetic as the value, so
a Dual whose value is itself a Dual carries exact second derivatives; the
curvature check relies on that.  Besides arithmetic and real powers, `sin`
and `cos` are the only functions: the formulas take no other.

Tangent arithmetic is unrolled over the four fixed slots; the unrolled
forms are about twice as fast as tuple comprehensions.
"""

import math

_ZERO4 = (0.0, 0.0, 0.0, 0.0)
_UNITS = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
)


class Dual:
    __slots__ = ("val", "tan")

    def __init__(self, val, tan=_ZERO4):
        self.val = val
        self.tan = tan

    def __add__(self, other):
        t = self.tan
        if isinstance(other, Dual):
            o = other.tan
            return Dual(self.val + other.val,
                        (t[0] + o[0], t[1] + o[1], t[2] + o[2], t[3] + o[3]))
        return Dual(self.val + other, t)

    __radd__ = __add__

    def __sub__(self, other):
        t = self.tan
        if isinstance(other, Dual):
            o = other.tan
            return Dual(self.val - other.val,
                        (t[0] - o[0], t[1] - o[1], t[2] - o[2], t[3] - o[3]))
        return Dual(self.val - other, t)

    def __rsub__(self, other):
        t = self.tan
        return Dual(other - self.val, (-t[0], -t[1], -t[2], -t[3]))

    def __mul__(self, other):
        t = self.tan
        v = self.val
        if isinstance(other, Dual):
            o = other.tan
            w = other.val
            return Dual(v * w, (t[0] * w + v * o[0], t[1] * w + v * o[1],
                                t[2] * w + v * o[2], t[3] * w + v * o[3]))
        return Dual(v * other,
                    (t[0] * other, t[1] * other, t[2] * other, t[3] * other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self.tan
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            q = self.val * inv
            o = other.tan
            return Dual(q, ((t[0] - q * o[0]) * inv, (t[1] - q * o[1]) * inv,
                            (t[2] - q * o[2]) * inv, (t[3] - q * o[3]) * inv))
        inv = 1.0 / other
        return Dual(self.val * inv,
                    (t[0] * inv, t[1] * inv, t[2] * inv, t[3] * inv))

    def __rtruediv__(self, other):
        # other / self for a plain scalar `other`
        inv = 1.0 / self.val
        q = other * inv
        w = -q * inv
        t = self.tan
        return Dual(q, (w * t[0], w * t[1], w * t[2], w * t[3]))

    def __neg__(self):
        t = self.tan
        return Dual(-self.val, (-t[0], -t[1], -t[2], -t[3]))

    def __pow__(self, p):
        # real exponent; base must stay positive unless p is integral
        w = p * self.val ** (p - 1)
        t = self.tan
        return Dual(self.val ** p, (w * t[0], w * t[1], w * t[2], w * t[3]))

    def __repr__(self):
        return f"Dual({self.val!r}, {self.tan!r})"


def value(x):
    """Innermost plain value of a possibly nested dual."""
    while isinstance(x, Dual):
        x = x.val
    return x


def tangent(x):
    """Tangent tuple of x, all zeros when x is a plain scalar."""
    return x.tan if isinstance(x, Dual) else _ZERO4


def seed(r, phi, p_r, p_phi):
    """Lift four coordinates into duals seeded along the four phase axes.

    The inputs may themselves be duals; the outer layer then differentiates
    through whatever the inputs already carry.
    """
    return (Dual(r, _UNITS[0]), Dual(phi, _UNITS[1]),
            Dual(p_r, _UNITS[2]), Dual(p_phi, _UNITS[3]))


# sin and cos hand a scalar that math rejects but that implements the
# function itself (the recording scalar of `tracing`) to its own method


def sin(x):
    if isinstance(x, Dual):
        c = cos(x.val)
        t = x.tan
        return Dual(sin(x.val), (c * t[0], c * t[1], c * t[2], c * t[3]))
    try:
        return math.sin(x)
    except TypeError:
        if not hasattr(x, "sin"):
            raise
    return x.sin()


def cos(x):
    if isinstance(x, Dual):
        s = sin(x.val)
        t = x.tan
        return Dual(cos(x.val), (-s * t[0], -s * t[1], -s * t[2], -s * t[3]))
    try:
        return math.cos(x)
    except TypeError:
        if not hasattr(x, "cos"):
            raise
    return x.cos()


def second_derivative(f, x0):
    """d^2 f / dx^2 at x0 for a single-variable f, via nested duals."""
    inner = Dual(x0, _UNITS[0])
    outer = Dual(inner, (Dual(1.0), 0.0, 0.0, 0.0))
    out = f(outer)
    first = tangent(out)[0]
    return tangent(first)[0]
