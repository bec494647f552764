"""Source-transformation differentiation: each family's vector field,
monitor row, the size of the monitors' terms and gradient rows, traced
once per parameter set into straight-line float code.

A recording scalar `Sym` runs through the same `formulas`/`catalog` code
that floats and duals run through and appends one line of Python per float
operation.  Seeded inside `Dual`s it records the forward-mode gradient, so
no derivative is written by hand (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008).  The emitted code performs the same
float operations in the same order as the dual and float paths, with three
exceptions.  Operations with a constant 0.0 or 1.0 (x*0, x+0, 0-x, x*1)
are folded, which can flip the sign of a zero.  Lines no output needs are
dropped, so a term multiplied by a constant zero can no longer turn the
result into a NaN or a complex number, or raise.  Repeated subexpressions
are computed once.

A gradient row (F, dF/dr, dF/dphi, dF/dp_r, dF/dp_phi) of a function the
catalog holds feeds the sampled certificate checks, cached per (params,
function, variant).  F comes from the float trace of F, as in the monitor
row, because the value part of a dual can differ from the float path by
an ulp; the partials come from the tangents of one seeded dual pass.

`Sym` has no truth value and no comparisons, so a formula that branches on
a traced value fails while tracing instead of compiling one branch.
"""

import functools
import math
from dataclasses import replace

from .dual import seed, tangent
from .families import hamiltonian
from .observables import corruption, family_integrals, integral

_COORDS = ("r", "phi", "p_r", "p_phi")
_GLOBALS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
            "inf": math.inf, "nan": math.nan}


def _atom(x):
    if isinstance(x, Sym):
        return x.name
    # repr is exact for floats; float() also turns numpy scalars into
    # literals, and inf and nan resolve in _GLOBALS
    text = repr(float(x))
    return f"({text})" if text.startswith("-") else text


def _zero(x):
    return not isinstance(x, Sym) and x == 0.0


def _one(x):
    return not isinstance(x, Sym) and x == 1.0


class Sym:
    """A traced scalar: the name of the local that will hold its value."""

    __slots__ = ("name", "tape", "operands")

    def __init__(self, name, tape, operands=()):
        self.name = name
        self.tape = tape        # expression -> Sym, shared by one trace
        self.operands = operands

    def _emit(self, expr, *args):
        known = self.tape.get(expr)
        if known is None:
            known = self.tape[expr] = Sym(
                f"v{len(self.tape)}", self.tape,
                tuple(a.name for a in args if isinstance(a, Sym)))
        return known

    def _bin(self, a, op, b):
        return self._emit(f"{_atom(a)} {op} {_atom(b)}", a, b)

    def __add__(self, other):
        return self if _zero(other) else self._bin(self, "+", other)

    def __radd__(self, other):
        return self if _zero(other) else self._bin(other, "+", self)

    def __sub__(self, other):
        return self if _zero(other) else self._bin(self, "-", other)

    def __rsub__(self, other):
        return -self if _zero(other) else self._bin(other, "-", self)

    def __mul__(self, other):
        if _zero(other):
            return 0.0
        return self if _one(other) else self._bin(self, "*", other)

    def __rmul__(self, other):
        if _zero(other):
            return 0.0
        return self if _one(other) else self._bin(other, "*", self)

    def __truediv__(self, other):
        return self._bin(self, "/", other)

    def __rtruediv__(self, other):
        return self._bin(other, "/", self)

    def __pow__(self, other):
        return self._bin(self, "**", other)

    def __neg__(self):
        return self._emit(f"-{self.name}", self)

    def sin(self):
        return self._emit(f"sin({self.name})", self)

    def cos(self):
        return self._emit(f"cos({self.name})", self)

    def sqrt(self):
        return self._emit(f"sqrt({self.name})", self)

    def __abs__(self):
        return self._emit(f"abs({self.name})", self)

    def __bool__(self, *_):
        raise TypeError("a formula branched on a traced value")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__
    __hash__ = None


def compile_traced(fn):
    """Trace fn(r, phi, p_r, p_phi) -> tuple once into a compiled function
    of the same four coordinates that returns the same tuple of floats."""
    tape = {}
    outputs = fn(*(Sym(name, tape) for name in _COORDS))
    live = {o.name for o in outputs if isinstance(o, Sym)}
    body = []
    for expr, sym in reversed(tape.items()):
        if sym.name in live:
            body.append(f"    {sym.name} = {expr}")
            live.update(sym.operands)
    head = f"def traced({', '.join(_COORDS)}):"
    ret = f"    return ({', '.join(_atom(o) for o in outputs)},)"
    namespace = dict(_GLOBALS)
    exec("\n".join([head] + body[::-1] + [ret]), namespace)
    return namespace["traced"]


def _field(params, r, phi, p_r, p_phi):
    t = tangent(hamiltonian(params, *seed(r, phi, p_r, p_phi)))
    return (t[2], t[3], -t[0], -t[1])


@functools.lru_cache(maxsize=128)
def vector_field(params):
    """Compiled (dr/dt, dphi/dt, dp_r/dt, dp_phi/dt) of H, called as
    f(r, phi, p_r, p_phi)."""
    return compile_traced(functools.partial(_field, params))


@functools.lru_cache(maxsize=128)
def monitors(params):
    """(names, row) for H and every bound integral of the family; row(r,
    phi, p_r, p_phi) returns their values in the order of names."""
    names = ("H",) + family_integrals(params.family)
    fns = [integral(params.family, name) for name in names]
    return names, compile_traced(
        lambda *y: tuple(fn(params, *y) for fn in fns))


@functools.lru_cache(maxsize=128)
def monitor_terms(params):
    """Compiled row(r, phi, p_r, p_phi) -> the size of each monitor's
    terms, in the order of `monitors(params)`: |F| at couplings zeroed plus
    |F with one coupling alone - F at couplings zeroed| for each coupling.
    H and every bound integral are linear in (k0, k1, k2), so these are
    the parts that sum to F; near a pole they are far larger than F, and
    so is the roundoff F carries."""
    names, _ = monitors(params)
    fns = [integral(params.family, name) for name in names]
    zero = replace(params, k0=0.0, k1=0.0, k2=0.0)
    alone = (replace(zero, k0=params.k0), replace(zero, k1=params.k1),
             replace(zero, k2=params.k2))

    def sizes(*y):
        out = []
        for fn in fns:
            base = fn(zero, *y)
            out.append(abs(base) + sum(abs(fn(p, *y) - base) for p in alone))
        return tuple(out)
    return compile_traced(sizes)


def _row(fn, params, r, phi, p_r, p_phi):
    dual = fn(params, *seed(r, phi, p_r, p_phi))
    return (fn(params, r, phi, p_r, p_phi),) + tuple(tangent(dual))


@functools.lru_cache(maxsize=512)
def gradient_row(params, fn, variant=None):
    """Compiled row(r, phi, p_r, p_phi) -> (F, dF/dr, dF/dphi, dF/dp_r,
    dF/dp_phi) of F = fn(params, r, phi, p_r, p_phi).

    `fn` is a function as the catalog holds it: an `Integral`, H or T
    (`observables.integral`), a part of a complex factor in `laws` or
    `conserved_product`; these live as long as the module, so the cache
    hits.  `variant` names the part whose corruption replaces F (see
    `observables.corruption`).  The Killing part of an integral is its
    plain row at couplings zeroed.
    """
    if variant is not None:
        fn = corruption(fn, params, variant)
    return compile_traced(functools.partial(_row, fn, params))
