"""Fixed pure-Python reference kernel for machine-normalized time.

The benchmark times this kernel before every op and reports op wall time
relative to the summed kernel time (`wall_rel`).  The kernel mimics the
program's instruction mix: small slotted objects with operator methods,
float arithmetic, `isinstance` dispatch and `math` calls.

FROZEN: any change to this file rescales every `wall_rel` figure ever
recorded.  `CHECKSUM` pins the arithmetic; `run.py` refuses to run if the
kernel's result drifts from it by more than libm roundoff.
"""

import math

ITERATIONS = 4000
CHECKSUM = -1.5367166172091078


class _Vec:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def __add__(self, other):
        if isinstance(other, _Vec):
            return _Vec(self.x + other.x, self.y + other.y)
        return _Vec(self.x + other, self.y + other)

    def __mul__(self, s):
        return _Vec(self.x * s, self.y * s)

    def norm(self):
        return math.sqrt(self.x * self.x + self.y * self.y)


def kernel(iterations=ITERATIONS):
    """Semi-implicit Euler on a perturbed Kepler orbit; returns a checksum."""
    pos = _Vec(1.0, 0.0)
    vel = _Vec(0.0, 1.1)
    h = 1e-3
    acc = 0.0
    for _ in range(iterations):
        r = pos.norm()
        theta = math.atan2(pos.y, pos.x)
        pull = -(1.0 + 0.05 * math.cos(2.0 * theta)) / (r * r * r)
        vel = vel + pos * (pull * h)
        pos = pos + vel * h
        acc += math.sin(theta) * r ** 0.5
    return pos.x + 1e-6 * acc
