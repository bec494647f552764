"""Forward-mode dual scalars with a four-slot tangent.

The slots track partials with respect to (r, phi, p_r, p_phi), one forward
pass per gradient.  Tangent entries use the same arithmetic as the value, so
a Dual whose value is itself a Dual carries exact second derivatives; the
Jacobi test, which brackets a bracket, relies on that.  Besides arithmetic and real powers, `sin`
and `cos` are the only functions: the formulas take no other.
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
        if isinstance(other, Dual):
            return Dual(self.val + other.val,
                        tuple(a + b for a, b in zip(self.tan, other.tan)))
        return Dual(self.val + other, self.tan)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val,
                        tuple(a - b for a, b in zip(self.tan, other.tan)))
        return Dual(self.val - other, self.tan)

    def __rsub__(self, other):
        return Dual(other - self.val, tuple(-a for a in self.tan))

    def __mul__(self, other):
        v = self.val
        if isinstance(other, Dual):
            w = other.val
            return Dual(v * w, tuple(a * w + v * b
                                     for a, b in zip(self.tan, other.tan)))
        return Dual(v * other, tuple(a * other for a in self.tan))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            q = self.val * inv
            return Dual(q, tuple((a - q * b) * inv
                                 for a, b in zip(self.tan, other.tan)))
        inv = 1.0 / other
        return Dual(self.val * inv, tuple(a * inv for a in self.tan))

    def __rtruediv__(self, other):
        # other / self for a plain scalar `other`
        inv = 1.0 / self.val
        q = other * inv
        w = -q * inv
        return Dual(q, tuple(w * a for a in self.tan))

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.tan))

    def __pow__(self, p):
        # real exponent; base must stay positive unless p is integral
        w = p * self.val ** (p - 1)
        return Dual(self.val ** p, tuple(w * a for a in self.tan))

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
        return Dual(sin(x.val), tuple(c * a for a in x.tan))
    try:
        return math.sin(x)
    except TypeError:
        if not hasattr(x, "sin"):
            raise
    return x.sin()


def cos(x):
    if isinstance(x, Dual):
        s = sin(x.val)
        return Dual(cos(x.val), tuple(-s * a for a in x.tan))
    try:
        return math.cos(x)
    except TypeError:
        if not hasattr(x, "cos"):
            raise
    return x.cos()

