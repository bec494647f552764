"""The superintegrability certifier.

Assembles per-family numerical evidence into a machine-readable
Certificate: bracket conservation for every bound integral, the commuting
pair where one is claimed, functional-independence ranks, the
Killing-tensor condition on quadratic momentum parts, structural
identities, complex evolution laws, a negative-control corruption probe,
and one trajectory drift check.

Every check but the drift runs on traces of the catalog's own functions
(`tracing`): gradient rows, identity pairs, law rates and algebra
targets, on the float64 columns of the draws (`_Columns`).  One table,
`_CHECKS`, holds a certificate's checks in order, each with its name
prefix, tolerance, the rows it reads (its `read` keys) and its results.
A certificate runs the rows of every entry as one merged trace
(`tracing.column_trace`), so each distinct line, sin, cos and pow runs
once per certificate, and then loops over the table; a public check
called alone runs its own rows as one merged trace.  Where numpy flags a
merged run, each row runs its own trace, with the same floats.  `_worst`
reduces each residual array and refuses a NaN or an infinity; a Gram
determinant in column arithmetic spares the rank check's SVD the clear
points.  Every residual is deterministic given (params, sample seed,
integrator config) and equals its point-by-point oracle bit for bit.
Serialization: top-level JSON fields `family`, `n`, `couplings`, `checks`
(array of {name, max_residual, tolerance, pass}, plus `note` where a check
was skipped or needs reading guidance), `verdict`.
"""

import contextlib
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .brackets import BRACKET_TOL, bracket_scale, row_bracket
from .catalog import lookup
from .dynamics import (DRIFT_TOL, IntegratorConfig, drift_report, integrate,
                       worst_drift)
from .errors import EmptyTrajectory, NoQuadraticIntegral, PdmError
from .formulas import kinetic_noether
from .observables import (corruption, corruption_parts, family_integrals,
                          integral)
from .phase import PhasePoint, SampleConfig, sample_draws
from .tracing import (column_trace, elementwise, gradient_row,
                      identity_pairs, monitor_terms, monitors, on_columns,
                      read_only, value_row)

RANK_REL_THRESHOLD = 1e-8

IDENTITY_TOL = 1e-12
EVOLUTION_TOL = 1e-10
# least fraction of sampled points where the claimed triple has full rank
INDEPENDENCE_FRACTION = 0.95
# least residual every corrupted integral must show
CONTROL_FLOOR = 1e-3


@dataclass(frozen=True)
class CheckResult:
    # Python floats and bools, never numpy scalars, which would break
    # `is True` tests and json.dumps alike
    name: str
    max_residual: object     # float, or None when skipped
    tolerance: float
    passed: object           # bool, or None when skipped
    note: str = ""

    def as_dict(self):
        # strict JSON has no NaN or Infinity: a non-finite residual is null
        residual = self.max_residual
        if residual is not None and not math.isfinite(residual):
            residual = None
        d = {
            "name": self.name,
            "max_residual": residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.note:
            d["note"] = self.note
        return d


@dataclass(frozen=True)
class Certificate:
    params: object
    checks: tuple
    verdict: str

    def as_dict(self):
        return {
            "family": self.params.family,
            "n": self.params.n,
            "couplings": {"k0": self.params.k0, "k1": self.params.k1,
                          "k2": self.params.k2},
            "checks": [c.as_dict() for c in self.checks],
            "verdict": self.verdict,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True,
                          allow_nan=False)


class _Columns:
    """Sample points as an (N, 4) float64 array `draws` and its four
    columns, with a memo of the traces read on them (`read`), which
    `prefetch` fills from one merged trace.  A PhasePoint is built where
    one is read."""

    def __init__(self, draws):
        self.draws = draws
        self.r, self.phi, self.p_r, self.p_phi = draws.T
        self.memo = {}

    def __len__(self):
        return len(self.draws)

    def __getitem__(self, i):
        return PhasePoint(*self.draws[i].tolist())

    def read(self, kind, params, fn):
        """The columns of the key (kind, params, fn), where `kind` is
        `gradient_row`, `identity_pairs` or `value_row`, once per key:
        prefetched, or run on the key's own trace (`tracing.on_columns`)."""
        key = (kind, params, fn)
        if key not in self.memo:
            trace, _ = column_trace((key,))
            self.memo[key] = on_columns(trace, self.draws)
        return self.memo[key]

    def row(self, params, fn):
        """The columns of the gradient row of `fn` at `params`."""
        return self.read(gradient_row, params, fn)

    def prefetch(self, keys):
        """Memo the columns of every `read` key in `keys` not yet memoed
        from one run of their merged trace (`tracing.column_trace`), which
        computes each distinct line, sin, cos and pow once.  Where numpy
        flags that run (an overflow, a 0 divide or a NaN) it raises, and no
        key is memoed: each key's own trace then runs where it is read,
        flagging as it would."""
        keys = tuple(k for k in dict.fromkeys(keys) if k not in self.memo)
        if not keys:
            return
        trace, sizes = column_trace(keys)
        with np.errstate(all="raise", under="ignore"):
            cols = iter(read_only(trace(*self.draws.T), len(self)))
        for key, size in zip(keys, sizes):
            self.memo[key] = tuple(itertools.islice(cols, size))


def _columns(params, sample, points=None):
    """`points` as `_Columns`, drawn from `sample` when None."""
    if isinstance(points, _Columns):
        return points
    if points is None:
        return _Columns(sample_draws(params, sample.box, sample.count))
    return _Columns(np.array([pt.as_tuple() for pt in points]).reshape(-1, 4))


def _read(params, sample, points, rows, *options):
    """`points` as `_Columns`, with the `read` keys rows(params, points,
    *options) prefetched.  A prefetch only: a key it could not give (a run
    numpy flags, or a row that raises) is traced on its own where a check
    reads it, and raises there as it would."""
    points = _columns(params, sample, points)
    with contextlib.suppress(ArithmeticError, ValueError, TypeError):
        points.prefetch(rows(params, points, *options))
    return points


def _gradients(params, fns):
    """The `read` keys of the gradient rows of `fns` at `params`, an inert
    corruption (None) skipped."""
    return [(gradient_row, params, f) for f in fns if f is not None]


def _h(params):
    return integral(params.family, "H")


def _worst(check, residuals, points):
    """The largest of `residuals`, from 0.0: an array whose first axis runs
    over `points`.  A PdmError names `check`, the first NaN or infinity in
    C order, which `max` would drop, and its point."""
    bad = ~np.isfinite(residuals)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise PdmError(f"{check} residual is {float(residuals[first])} at "
                       f"the sample point (r, phi, p_r, p_phi) = "
                       f"{points[first[0]].as_tuple()}")
    return float(residuals.max(initial=0.0))


@np.errstate(all="ignore")
def _residuals(params, f, points, g=None):
    """Scaled |{F, G}| at each of the `_Columns` points, G = H unless
    given."""
    f_row, g_row = points.row(params, f), points.row(params, g or _h(params))
    return abs(row_bracket(f_row, g_row)) / bracket_scale(
        f_row[0], g_row[0], points)


def _bracketed(params, points, corrupt):
    """(name, F) of each bound integral in turn, F corrupted where
    `corrupt` names it (None where that corruption is inert)."""
    for obs in lookup(params.family).bound:
        yield obs.name, (_corrupted(obs, params, points)
                         if obs.name == corrupt else obs)


def _bracket_rows(params, points, corrupt=None):
    return _gradients(params, [_h(params)] + [
        f for _, f in _bracketed(params, points, corrupt)])


def bracket_residual_suite(params, sample, points=None, corrupt=None):
    """Per-integral max scaled |{J, H}| over the sample.

    `corrupt` names one integral to replace by its +10% corrupted version,
    demonstrating end to end that the harness turns the verdict.
    """
    points = _read(params, sample, points, _bracket_rows, corrupt)
    if corrupt is not None and corrupt not in family_integrals(params.family):
        raise PdmError(f"{params.family} does not bind {corrupt!r}")
    out = {}
    for name, f in _bracketed(params, points, corrupt):
        if f is None:
            raise ValueError(
                f"corruption of single-term integral {name} is inert")
        out[name] = _worst(f"bracket:{name}", _residuals(
            params, f, points), points)
    return out


def _named_rows(params, points, names):
    return _gradients(params, [integral(params.family, n) for n in names])


def involution_check(params, pairs=None, sample=None, points=None):
    """Scaled |{A, B}| for each named pair of bound integrals.

    Only the pair a family actually claims to commute should be asserted
    small; the other pairwise values are generically nonzero and are
    reported as found.
    """
    if pairs is None:
        names = [n for n in lookup(params.family).triple if n != "H"]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    pairs = list(pairs)
    points = _read(params, sample or SampleConfig(), points, _named_rows,
                   [name for pair in pairs for name in pair])
    fam = params.family
    return {f"{a},{b}": _worst(f"involution:{a},{b}", _residuals(
        params, integral(fam, a), points, integral(fam, b)), points)
        for a, b in pairs}


def independence_stats(params, sample, names=None, points=None):
    """Fraction of sampled points where the phase-gradients of 2 to 4
    named functions (the claimed triple by default) have full rank.

    Rank counts singular values above RANK_REL_THRESHOLD times the largest,
    the relative cut that keeps integrals of very different magnitude
    comparable.  Returns (fraction, failures); each failure carries the
    point and its singular values for inspection.
    """
    names = names or lookup(params.family).triple
    if not 2 <= len(names) <= 4:
        raise ValueError("rank check takes 2 to 4 functions")
    points = _read(params, sample, points, _named_rows, names)
    # the partials of every function at every point, stacked (N, k, 4)
    partials = np.array([points.row(params, integral(params.family, n))[1:]
                         for n in names]).transpose(2, 0, 1)
    failures = tuple((points[i], sv) for i, sv in _rank_failures(partials))
    return (len(points) - len(failures)) / len(points), failures


def _rank_failures(partials):
    """(index, singular values) of each (k, 4) P in the stack without full
    rank, as one SVD of the stack gives them (it raises on a NaN).  As
    lam_min / lam_max >= det G / tr(G)^k for G = P P^T (P scaled by its
    largest entry, so G cannot underflow), det(G / tr G) > 1e-10 clears P
    at sigma_min / sigma_max > 1e-5; only the rest go to the SVD.  G and
    its determinant are column arithmetic over the stack: the lower
    triangle of G, then elimination without pivoting, the product of whose
    pivots is det G (a zero or NaN pivot clears nothing)."""
    k = partials.shape[1]
    with np.errstate(all="ignore"):
        # (k, 4, N): unit[i][c] is entry (i, c) of every scaled P
        unit = partials.transpose(1, 2, 0) / abs(partials).max(axis=(1, 2))
        g = [[(unit[i] * unit[j]).sum(0) for j in range(i + 1)]
             for i in range(k)]
        trace = sum(g[i][i] for i in range(k))
        det = 1.0
        for p in range(k):
            det = det * (g[p][p] / trace)
            for i in range(p + 1, k):
                f = g[i][p] / g[p][p]
                for j in range(p + 1, i + 1):
                    g[i][j] = g[i][j] - f * g[j][p]
        rest = np.flatnonzero(~(det > 1e-10))
    sv = np.linalg.svd(partials[rest], compute_uv=False)
    full = ((sv[:, 0] != 0.0) & (np.sum(sv > RANK_REL_THRESHOLD * sv[:, :1],
                                        axis=1) == partials.shape[1]))
    return [(i, tuple(s)) for i, s, ok
            in zip(rest.tolist(), sv.tolist(), full.tolist()) if not ok]


def _killing_rows(params, points):
    quadratics = [obs for obs in lookup(params.family).bound
                  if obs.degree == 2]
    return quadratics and _gradients(replace(params, k0=0.0, k1=0.0, k2=0.0),
                                     [_h(params)] + quadratics)


def killing_tensor_check(params, sample, points=None):
    """Max scaled |{K, T}| over quadratic-integral momentum parts.

    K is an integral with its couplings zeroed; what remains is the
    quadratic momentum form whose symmetric tensor must satisfy the
    Killing condition against the kinetic flow.
    """
    quadratics = [obs for obs in lookup(params.family).bound
                  if obs.degree == 2]
    if not quadratics:
        raise NoQuadraticIntegral(
            f"{params.family} binds no quadratic integral")
    points = _read(params, sample, points, _killing_rows)
    zeroed = replace(params, k0=0.0, k1=0.0, k2=0.0)
    # integral by integral, so the PdmError names the first in that order
    return max(_worst("killing_tensor", _residuals(zeroed, obs, points),
                      points) for obs in quadratics)


@np.errstate(all="ignore")
def _rel(lhs, rhs, terms=0.0):
    # on floats or columns; np.fmax skips a NaN as max(1.0, ...) does
    return abs(lhs - rhs) / np.fmax(np.fmax(np.fmax(
        1.0, abs(lhs)), abs(rhs)), terms)


def identity_residual(params, name, fn, points):
    """Worst `_rel` gap of `fn`'s (lhs, rhs) pairs, or (lhs, rhs, terms)
    where a pair carries the size of its terms; `name` labels the check.
    Point by point, for the flat twin of `pdm xcheck`, which branches on
    values and so cannot be traced."""
    return _worst(f"identity:{name}", np.array([
        [_rel(*pair) for pair in fn(params, *pt.as_tuple())]
        for pt in points]), points)


def _identities(fam):
    """(name, fn) of the kinetic-Noether identity, then of the family's."""
    return (("kinetic_noether", kinetic_noether),) + fam.identities


def _identity_rows(params, points):
    return [(identity_pairs, params, fn)
            for _, fn in _identities(lookup(params.family))]


def identity_suite(params, sample, points=None):
    """Worst `_rel` gap of the kinetic-Noether identity, then of each of
    the family's own, as one trace on the columns (`identity_pairs`)."""
    points = _read(params, sample, points, _identity_rows)
    out = {}
    for name, fn in _identities(lookup(params.family)):
        flat = points.read(identity_pairs, params, fn)
        # (points, pairs): `_worst` names a point's first pair first
        out[name] = _worst(f"identity:{name}", np.stack(
            [_rel(*pair) for pair in zip(flat[::2], flat[1::2])], 1), points)
    return out


def _algebra_rows(params, points):
    return [key for _, a, b, rhs in lookup(params.family).algebra
            for key in _named_rows(params, points, (a, b))
            + [(value_row, params, rhs)]]


@np.errstate(all="ignore")
def algebra_check(params, sample, points=None):
    """The closed bracket relations {A, B} = rhs the family carries (the
    third integral and the Runge-Lenz pair of the single-angle oscillator
    family); empty for families that carry none."""
    points = _read(params, sample, points, _algebra_rows)
    out = {}
    for name, a, b, rhs in lookup(params.family).algebra:
        fa = points.row(params, integral(params.family, a))
        fb = points.row(params, integral(params.family, b))
        target, = points.read(value_row, params, rhs)
        out[name] = _worst(f"algebra:{name}", abs(
            row_bracket(fa, fb) - target) / bracket_scale(
            fa[0], fb[0], points), points)
    return out


def _evolution_rows(params, points):
    fam = lookup(params.family)
    parts = [part for _, pair, _ in fam.laws for part in pair]
    return _gradients(params, [_h(params), *parts, *fam.conserved_product]
                      ) + [(value_row, params, rate) for *_, rate in fam.laws]


@np.errstate(all="ignore")
def evolution_law_check(params, sample, points=None):
    """Complex evolution laws of the factor functions against H.

    na_prime: {M, H} = 2 i lam M and {N, H} = 2 i lam N with the
    (n-1)-inclusive lam convention; nd: {A, H} = -i (n-1) lam A and
    {N, H} = +i (n-1) lam N with lam = r^{2(n-1)} p_phi, plus conservation
    of both real components of the product A N.  Empty for families that
    carry no complex factor.
    """
    fam = lookup(params.family)
    points = _read(params, sample, points, _evolution_rows)
    h = points.row(params, _h(params))
    out = {}
    for label, (re, im), rate in fam.laws:
        zr, zi = points.row(params, re), points.row(params, im)
        c, = points.read(value_row, params, rate)
        scale = bracket_scale(elementwise(math.hypot, zr[0], zi[0]), h[0],
                              points)
        # {Z,H} = i c Z componentwise: {Re,H} = -c Im, {Im,H} = +c Re;
        # each point's Re residual, then its Im residual
        res = np.stack([abs(row_bracket(zr, h) + c * zi[0]) / scale,
                        abs(row_bracket(zi, h) - c * zr[0]) / scale], 1)
        out[f"{label}_law"] = _worst(f"evolution:{label}_law", res, points)
    if fam.conserved_product:
        out["product_conserved"] = max(
            _worst("evolution:product_conserved", _residuals(
                params, part, points), points)
            for part in fam.conserved_product)
    return out


def _probe_rows(params, points):
    return [(value_row, params, f) for obs in lookup(params.family).bound
            for f in (obs, *dict(corruption_parts(obs, params)).values())]


def _corrupted(obs, params, points):
    """`obs` plus 10% of the first of its parts (`observables.
    corruption_parts`) that is nonzero and differs from `obs`, each by
    more than 1e-9 at one of the first 8 of the `_Columns` points, or None
    where no part does: a single-term integral admits no symmetry-breaking
    corruption (scaling a conserved quantity keeps it conserved), so None
    marks it inert.  Once per key, on the value columns of every bound
    integral and its parts at those 8 points, one merged trace."""
    key = (_corrupted, params, obs)
    if key in points.memo:
        return points.memo[key]
    if (_probe_rows, params) not in points.memo:
        points.memo[_probe_rows, params] = _read(
            params, None, _Columns(points.draws[:8]), _probe_rows)
    probe, chosen = points.memo[_probe_rows, params], None
    full, = probe.read(value_row, params, obs)
    for name, part in corruption_parts(obs, params):
        sub, = probe.read(value_row, params, part)
        with np.errstate(all="ignore"):
            differs = abs(full - sub).tolist()
        # Python's max, which passes over a NaN that is not first
        if max(abs(sub).tolist()) > 1e-9 and max(differs) > 1e-9:
            chosen = corruption(obs, params, name)
            break
    points.memo[key] = chosen
    return chosen


def _control_rows(params, points):
    bound = lookup(params.family).bound
    return _gradients(params, [_h(params)] + [
        _corrupted(obs, params, points) for obs in bound])


def corruption_suite(params, sample, points=None):
    """Max scaled residual of each corrupted integral; the harness is
    sensitive when every non-inert corruption lands well above tolerance."""
    points = _read(params, sample, points, _control_rows)
    results = {}
    inert = []
    for obs in lookup(params.family).bound:
        f = _corrupted(obs, params, points)
        if f is None:
            inert.append(obs.name)
            continue
        res = _residuals(params, f, points)
        results[obs.name] = _worst(f"negative_control:{obs.name}", res,
                                   points)
    return results, tuple(inert)


def _require_finite(params, points):
    """Raise PdmError unless H and every bound integral are finite at
    every sample point: on the value columns of their gradient rows, or,
    where one is not finite or a row raises (to raise again in the check
    that needs it), point by point through the monitor row."""
    names, row = monitors(params)
    with contextlib.suppress(ArithmeticError, ValueError, TypeError):
        if all(np.isfinite(points.row(params, integral(
                params.family, name))[0]).all() for name in names):
            return
    for pt in points:
        for name, val in zip(names, row(*pt.as_tuple())):
            if not math.isfinite(val):
                raise PdmError(f"{name} is {val} at the sample point "
                               f"(r, phi, p_r, p_phi) = {pt.as_tuple()}")


def certificate(params, sample=None, config=None, corrupt=None):
    """Run every applicable check and aggregate the evidence.

    Check failures turn the verdict, never raise; a check that cannot run
    for structural reasons is recorded as skipped with its reason.
    Couplings so large that H, an integral or a check overflows, or that
    leave a residual NaN or infinite, raise PdmError before a verdict is
    drawn.  `corrupt` names one integral to corrupt before the bracket
    suite, as a live demonstration that a broken claim fails the
    certificate.
    """
    if params.n == 1.0:
        raise PdmError("n = 1 degenerate (k_n = 0): P2 = -Pphi")
    config = config or IntegratorConfig(t_end=10.0)
    points = _read(params, sample or SampleConfig(), None,
                   _certificate_rows)
    try:
        _require_finite(params, points)
        checks = tuple(_checks(params, config, points, corrupt))
    except (OverflowError, np.linalg.LinAlgError) as exc:
        # the SVD of the rank check fails only on partials that overflowed
        raise PdmError(f"a check overflows at these couplings: "
                       f"{exc.args[-1]}") from None
    verdict = "pass" if all(c.passed is not False for c in checks) else "fail"
    return Certificate(params=params, checks=checks, verdict=verdict)


def _certificate_rows(params, points):
    """Every `read` key of the checks of a certificate."""
    return [key for _, _, rows, _ in _CHECKS for key in rows(params, points)]


def _checks(params, config, points, corrupt):
    for prefix, tol, _, results in _CHECKS:
        try:
            found = results(params, points, config, corrupt)
        except (NoQuadraticIntegral, EmptyTrajectory) as exc:
            found = [("", None, f"skipped: {exc}")]
        for name, res, note in found:
            passed = None if res is None else (
                res > tol if prefix == "negative_control" else res <= tol)
            yield CheckResult(f"{prefix}:{name}" if name else prefix, res,
                              tol, passed, note)


def _suite(check):
    """The results of a public check that returns {name: residual}."""
    return lambda params, points, *_: [
        (name, res, "") for name, res in check(params, None, points).items()]


def _brackets(params, points, config, corrupt):
    suite = bracket_residual_suite(params, None, points, corrupt)
    return [(name, res, "+10% corruption applied" if name == corrupt
             else None) for name, res in suite.items()]


def _involution(params, points, *_):
    pair = lookup(params.family).commuting
    return [(name, res, "") for name, res in involution_check(
        params, [pair] if pair else [], points=points).items()]


def _independence(params, points, *_):
    triple = lookup(params.family).triple
    fraction, _ = independence_stats(params, None, triple, points)
    # 1 - fraction is exact for fraction >= 0.5, so it is at most
    # 1 - INDEPENDENCE_FRACTION just where fraction is at least that
    return [(",".join(triple), 1.0 - fraction,
             f"full rank at {fraction:.1%} of {len(points)} points")]


def _control(params, points, *_):
    results, inert = corruption_suite(params, None, points)
    if not results:
        return [("", None, "skipped: every bound integral is single-term")]
    note = "passes when the corrupted residual exceeds tolerance"
    if inert:
        note += f"; inert (single-term): {','.join(inert)}"
    return [("", min(results.values()), note)]


def _drift(params, points, config, _):
    trajectory = integrate(params, points[0], config)
    worst = worst_drift(drift_report(
        trajectory, terms=monitor_terms(params)).values())
    return [("", worst, f"{trajectory.termination} at "
                        f"t={trajectory.times[-1]:.3g}")]


# The checks of a certificate, in order: (name prefix, tolerance, rows,
# results).  rows(params, points) gives the `read` keys a check reads on
# the columns, and results(params, points, config, corrupt) its (name,
# residual, note) triples, each named "prefix:name", or the prefix alone
# for an empty name.  A None residual is a skipped check; the negative
# control passes above its tolerance, every other check at or below it.
_CHECKS = (
    ("bracket", BRACKET_TOL, _bracket_rows, _brackets),
    ("involution", BRACKET_TOL, lambda params, points: _named_rows(
        params, points, lookup(params.family).commuting), _involution),
    ("independence", 1.0 - INDEPENDENCE_FRACTION, lambda params, points:
        _named_rows(params, points, lookup(params.family).triple),
     _independence),
    ("killing_tensor", BRACKET_TOL, _killing_rows, lambda params, points, *_:
        [("", killing_tensor_check(params, None, points), "")]),
    ("identity", IDENTITY_TOL, _identity_rows, _suite(identity_suite)),
    ("algebra", BRACKET_TOL, _algebra_rows, _suite(algebra_check)),
    ("evolution", EVOLUTION_TOL, _evolution_rows,
     _suite(evolution_law_check)),
    ("negative_control", CONTROL_FLOOR, _control_rows, _control),
    ("drift", DRIFT_TOL, lambda params, points: [], _drift),
)
