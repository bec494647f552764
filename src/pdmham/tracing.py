"""Source-transformation differentiation: each family's vector field,
monitor row, the size of the monitors' terms and gradient rows, traced
once per parameter set into compiled float code.

A recording scalar `Sym` runs through the same `formulas`/`catalog` code
that floats and duals run through and appends one tape line per float
operation.  Seeded inside `Dual`s it records the forward-mode gradient, so
no derivative is written by hand (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008).  The emitted code performs the same
float operations in the same order as the dual and float paths, with
these exceptions.  Operations with a constant 0.0 or 1.0 (x*0, x+0, 0-x,
x*1) are folded, which can flip the sign of a zero.  Lines no output needs
are dropped, so a term multiplied by a constant zero can no longer turn
the result into a NaN or a complex number, or raise.  Repeated
subexpressions are computed once.  Rewrites that give the same float on
every input remove more lines: x**0.0 is 1.0, x**1.0 is x, and a + b and
a * b are keyed in one operand order, so b + a and b * a reuse their
line.  The source text of a trace thus changes with the rewrites; its
values do not.

The vector field and the monitor row, which `integrate` calls at every
stage and step, write a +, - or * whose value is read once into the
expression that reads it (`compile_traced`).  That changes no float and
no exception: the operations keep their operands and order, and those
that can raise keep their order.

Column traces run on float64 columns of sample points.  A key (kind,
params, fn) names what one records: the gradient row (F, dF/dr, dF/dphi,
dF/dp_r, dF/dp_phi) of a function the catalog holds or of a corrupted
integral, the (lhs, rhs) pairs of an identity, or one value.  F comes
from the float trace of F, as in the monitor row, because the value part
of a dual can differ from the float path by an ulp; the partials come
from the tangents of one seeded dual pass.  `column_trace` compiles any
tuple of keys as one trace, cached per tuple: a certificate's rows, one
check's, or one key alone.  On columns, traces give their floats point
by point: numpy's `+ - * / abs` round as Python's; `sin`, `cos` and `**`
map math's (`elementwise`), as numpy's own can be an ulp off.

`Sym` records arithmetic, real powers, `abs`, `sin` and `cos`, which is
all the formulas and `Dual` take.  It has no truth value and no
comparisons, so a formula that branches on a traced value fails while
tracing instead of compiling one branch.
"""

import functools
import math
from dataclasses import replace

from .dual import seed, tangent
from .families import hamiltonian
from .observables import family_integrals, integral

_COORDS = ("r", "phi", "p_r", "p_phi")
_GLOBALS = {"sin": math.sin, "cos": math.cos, "inf": math.inf,
            "nan": math.nan}


def elementwise(fn, *args):
    """fn on floats, or mapped over the elements of float64 columns, a
    float argument repeating."""
    import numpy as np
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    if not arrays:
        return fn(*args)
    import itertools
    cols = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a)
            for a in args]
    return np.fromiter(map(fn, *cols), float, len(arrays[0]))


def on_columns(trace, rows):
    """A trace compiled with `columns` on the columns of the (N, 4) array
    `rows`.  Where numpy flags an overflow, a 0 divide or a NaN, or sin, cos
    or pow raise or give a non-float, it reruns row by row, raising so."""
    import numpy as np
    try:
        with np.errstate(all="raise", under="ignore"):
            out = trace(*rows.T)
    except (ArithmeticError, ValueError, TypeError):
        out = zip(*(trace(*row) for row in rows.tolist()))
    return read_only(out, len(rows))


def read_only(out, size):
    """Each of a trace's outputs as a read-only float64 column of `size`:
    an array as it came, a constant or a row-by-row tuple broadcast."""
    import numpy as np
    cols = []
    for col in out:
        if isinstance(col, np.ndarray):
            col.flags.writeable = False
        else:
            col = np.broadcast_to(np.asarray(col, dtype=float), (size,))
        cols.append(col)
    return tuple(cols)


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
        left, right = _atom(a), _atom(b)
        # a + b and a * b round as b + a and b * a: one operand order per
        # key, so repeats merge whichever way round they come
        if op in ("+", "*") and right < left:
            left, right = right, left
        return self._emit(f"{left} {op} {right}", a, b)

    def __add__(self, other):
        return self if _zero(other) else self._bin(self, "+", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self if _zero(other) else self._bin(self, "-", other)

    def __rsub__(self, other):
        return -self if _zero(other) else self._bin(other, "-", self)

    def __mul__(self, other):
        if _zero(other):
            return 0.0
        return self if _one(other) else self._bin(self, "*", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin(self, "/", other)

    def __rtruediv__(self, other):
        return self._bin(other, "/", self)

    def __pow__(self, other):
        # float ** returns 1.0 for a zero exponent before any other case,
        # NaN and inf included
        if _zero(other):
            return 1.0
        # and x for a unit exponent: NaN, inf and 0 by case, the rest
        # through libm's pow, which returns an exact result unchanged
        if _one(other):
            return self
        return self._bin(self, "**", other)

    def __neg__(self):
        return self._emit(f"-{self.name}", self)

    def sin(self):
        return self._emit(f"sin({self.name})", self)

    def cos(self):
        return self._emit(f"cos({self.name})", self)

    def __abs__(self):
        return self._emit(f"abs({self.name})", self)

    def __bool__(self, *_):
        raise TypeError("a formula branched on a traced value")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__
    __hash__ = None


def compile_traced(fn, label, columns=False):
    """Trace fn(r, phi, p_r, p_phi) -> tuple once into a compiled function
    of the same four coordinates that returns the same tuple of floats.
    It is compiled under the file name `<traced label>`, so profiles list
    each trace on its own.

    On floats, a value read exactly once whose operation is +, - or * is
    written, in parentheses, into the one expression that reads it, instead
    of into a local of its own.  Each operation keeps its operands and
    their order, so every float (and every complex a negative base gives)
    is the same; and as these operations cannot raise, every /, **, sin,
    cos and abs stays a statement of its own in tape order, so the first
    exception a trace raises is the same too.  With `columns`, every
    operation stays a statement: it calls `sin`, `cos` and `**` through
    `elementwise`, and deletes each local after its last read, so that a
    long trace holds only the column temporaries it will still read."""
    tape = {}
    outputs = fn(*(Sym(name, tape) for name in _COORDS))
    live = {o.name for o in outputs if isinstance(o, Sym)}
    lines = []      # (expr, sym, the operands it reads last, on columns)
    for expr, sym in reversed(tape.items()):
        if sym.name in live:
            dead = columns and sorted(set(sym.operands) - live - set(_COORDS))
            lines.append((expr, sym, dead))
            live.update(sym.operands)
    ret = [_atom(o) for o in outputs]
    body = []
    if columns:
        for expr, sym, dead in reversed(lines):
            if " ** " in expr:
                expr = "elementwise(pow, {}, {})".format(*expr.split(" ** "))
            elif expr[:4] in ("sin(", "cos("):
                expr = f"elementwise({expr[:3]}, {expr[4:]}"
            body.append(f"    {sym.name} = {expr}")
            # on columns, an operand's array is freed after its last read
            if dead:
                body.append(f"    del {', '.join(dead)}")
    else:
        reads = {}      # per name, with multiplicity: the return and lines
        for name in ret + [a for _, sym, _ in lines for a in sym.operands]:
            reads[name] = reads.get(name, 0) + 1
        nested = {}
        for expr, sym, _ in reversed(lines):
            if " " in expr:             # a op b
                a, op, b = expr.split(" ")
                expr = f"{nested.get(a, a)} {op} {nested.get(b, b)}"
            else:                       # -a, sin(a), cos(a) or abs(a)
                a, = sym.operands
                op, _, end = expr.partition(a)
                expr = f"{op}{nested.get(a, a)}{end}"
            if op in ("+", "-", "*") and reads[sym.name] == 1:
                nested[sym.name] = f"({expr})"
            else:
                body.append(f"    {sym.name} = {expr}")
        ret = [nested.get(a, a) for a in ret]
    head = f"def traced({', '.join(_COORDS)}):"
    namespace = dict(_GLOBALS, elementwise=elementwise)
    source = "\n".join([head, *body, f"    return ({', '.join(ret)},)"])
    exec(compile(source, f"<traced {label}>", "exec"), namespace)
    return namespace["traced"]


def _field(params, r, phi, p_r, p_phi):
    t = tangent(hamiltonian(params, *seed(r, phi, p_r, p_phi)))
    return (t[2], t[3], -t[0], -t[1])


@functools.lru_cache(maxsize=128)
def vector_field(params):
    """Compiled (dr/dt, dphi/dt, dp_r/dt, dp_phi/dt) of H, called as
    f(r, phi, p_r, p_phi)."""
    return compile_traced(functools.partial(_field, params),
                          f"vector_field {params}")


@functools.lru_cache(maxsize=128)
def monitors(params):
    """(names, row) for H and every bound integral of the family; row(r,
    phi, p_r, p_phi) returns their values in the order of names."""
    names = ("H",) + family_integrals(params.family)
    fns = [integral(params.family, name) for name in names]
    return names, compile_traced(
        lambda *y: tuple(fn(params, *y) for fn in fns),
        f"monitors {params}")


@functools.lru_cache(maxsize=128)
def monitor_terms(params):
    """Compiled row(r, phi, p_r, p_phi) -> the size of each monitor's
    terms, on floats or columns, in the order of `monitors(params)`: |F|
    at couplings zeroed plus |F with one coupling alone - F at couplings
    zeroed| for each coupling.
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
    return compile_traced(sizes, f"monitor_terms {params}", columns=True)


def gradient_row(params, fn, *y):
    """(F, dF/dr, dF/dphi, dF/dp_r, dF/dp_phi) of F = fn(params, *y): H or
    an integral (`observables.integral`), a part of a complex factor, or a
    corrupted integral (`observables.corruption`), one object per key."""
    dual = fn(params, *seed(*y))
    return (fn(params, *y),) + tuple(tangent(dual))


def identity_pairs(params, fn, *y):
    """The (lhs, rhs) pairs of the identity fn(params, *y), flattened."""
    return sum(fn(params, *y), ())


def value_row(params, fn, *y):
    """(fn(params, *y),): an algebra target or a law's rate."""
    return (fn(params, *y),)


@functools.lru_cache(maxsize=512)
def column_trace(keys):
    """One trace, compiled for float64 columns, of every key (kind, params,
    fn) in `keys`, with the number of outputs of each key: kind(params, fn,
    r, phi, p_r, p_phi) for each key in turn, recorded on one tape, so a
    line two keys share is computed once.  A key's own trace is the trace
    of that key alone; its floats are the same in any tuple of keys."""
    sizes = []

    def record(*y):
        out = ()
        for kind, params, fn in keys:
            part = kind(params, fn, *y)
            sizes.append(len(part))
            out += part
        return out
    kind, params, fn = keys[0]
    name = getattr(fn, "name", None) or fn.__name__
    label = f"{kind.__name__} {name} {params}"
    if len(keys) > 1:
        label += f" and {len(keys) - 1} more"
    return compile_traced(record, label, columns=True), tuple(sizes)
