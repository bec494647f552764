"""The superintegrability certifier.

Assembles per-family numerical evidence into a machine-readable
Certificate: bracket conservation for every bound integral, the commuting
pair where one is claimed, functional-independence ranks, the
Killing-tensor condition on quadratic momentum parts, structural
identities, complex evolution laws, a negative-control corruption probe,
and one trajectory drift check.

The checks combine gradient rows of the catalog's own functions, traced
once per (params, function) by `tracing.gradient_row`, in plain floats,
and reduce their residuals through `_worst`, which refuses a NaN or an
infinity.  Every residual is deterministic given (params, sample seed,
integrator config) and equals its `Dual` bracket oracle bit for bit.
Tolerances are module constants.
Serialization: top-level JSON fields `family`, `n`, `couplings`, `checks`
(array of {name, max_residual, tolerance, pass}, plus `note` where a check
was skipped or needs reading guidance), `verdict`.
"""

import json
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .brackets import BRACKET_TOL, bracket_scale, row_bracket, row_residual
from .catalog import lookup
from .dynamics import DRIFT_TOL, IntegratorConfig, drift_report, integrate
from .errors import (DegenerateN, EmptyTrajectory, NonFinite,
                     NoQuadraticIntegral, UnknownIntegral)
from .formulas import kinetic_noether
from .observables import corruption_parts, family_integrals, integral
from .phase import DomainBox, sample_points
from .tracing import gradient_row, monitor_terms, monitors

RANK_REL_THRESHOLD = 1e-8

IDENTITY_TOL = 1e-12
EVOLUTION_TOL = 1e-10
# least fraction of sampled points where the claimed triple has full rank
INDEPENDENCE_FRACTION = 0.95
# least residual every corrupted integral must show
CONTROL_FLOOR = 1e-3


@dataclass(frozen=True)
class SampleConfig:
    count: int = 200
    box: DomainBox = DomainBox()

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be >= 1")


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: object     # float, or None when skipped
    tolerance: object
    passed: object           # bool, or None when skipped
    note: str = ""

    def __post_init__(self):
        # numpy scalars (bool_, float64) must not leak out of the checks:
        # they break `is True` identity tests and json.dumps alike
        if self.max_residual is not None:
            object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))

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

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

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


def _points(params, sample):
    return sample_points(params, sample.box, sample.count)


def _rows(params, fn, points, variant=None):
    """The gradient row of `fn` (see `tracing.gradient_row`) at each point."""
    row = gradient_row(params, fn, variant)
    return [row(*pt.as_tuple()) for pt in points]


def _worst(check, residuals):
    """The largest of (residual, point) pairs, from 0.0; NonFinite names
    `check` and the point of a NaN or infinite one, which `max` would drop."""
    worst = 0.0
    for res, pt in residuals:
        if not math.isfinite(res):
            raise NonFinite(f"{check} residual is {res} at the sample point "
                            f"(r, phi, p_r, p_phi) = {pt.as_tuple()}")
        worst = max(worst, res)
    return worst


def _residuals(params, f, points, g=None, variant=None):
    """(scaled |{F, G}|, point) at each point, G = H unless given;
    `variant` applies to F."""
    if g is None:
        g = integral(params.family, "H")
    return zip(map(row_residual, _rows(params, f, points, variant),
                   _rows(params, g, points), points), points)


def bracket_residual_suite(params, sample, points=None, corrupt=None):
    """Per-integral max scaled |{J, H}| over the sample.

    `corrupt` names one integral to replace by its +10% corrupted version,
    demonstrating end to end that the harness turns the verdict.
    """
    points = points if points is not None else _points(params, sample)
    if corrupt is not None and corrupt not in family_integrals(params.family):
        raise UnknownIntegral(f"{params.family} does not bind {corrupt!r}")
    out = {}
    for obs in lookup(params.family).bound:
        part = None
        if obs.name == corrupt:
            part = _corruption_part(obs, params, points[:8])
            if part is None:
                raise ValueError(
                    f"corruption of single-term integral {obs.name} is inert")
        out[obs.name] = _worst(f"bracket:{obs.name}", _residuals(
            params, obs, points, variant=part))
    return out


def involution_check(params, pairs=None, sample=None, points=None):
    """Scaled |{A, B}| for each named pair of bound integrals.

    Only the pair a family actually claims to commute should be asserted
    small; the other pairwise values are generically nonzero and are
    reported as found.
    """
    if points is None:
        points = _points(params, sample or SampleConfig())
    if pairs is None:
        names = [n for n in lookup(params.family).triple if n != "H"]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    fam = params.family
    return {f"{a},{b}": _worst(f"involution:{a},{b}", _residuals(
        params, integral(fam, a), points, integral(fam, b)))
        for a, b in pairs}


def independence_stats(params, sample, names=None, points=None):
    """Fraction of sampled points where the phase-gradients of 2 to 4
    named functions (the claimed triple by default) have full rank.

    Rank counts singular values above RANK_REL_THRESHOLD times the largest,
    the relative cut that keeps integrals of very different magnitude
    comparable.  Returns (fraction, failures); each failure carries the
    point and its singular values for inspection.
    """
    points = points if points is not None else _points(params, sample)
    names = names or lookup(params.family).triple
    if not 2 <= len(names) <= 4:
        raise ValueError("rank check takes 2 to 4 functions")
    failures = []
    hits = 0
    for pt, *rows in zip(points, *(_rows(
            params, integral(params.family, n), points) for n in names)):
        sv = np.linalg.svd([row[1:] for row in rows], compute_uv=False)
        if sv[0] != 0.0 and np.sum(
                sv > RANK_REL_THRESHOLD * sv[0]) == len(names):
            hits += 1
        else:
            failures.append((pt, tuple(float(s) for s in sv)))
    return hits / len(points), tuple(failures)


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
    points = points if points is not None else _points(params, sample)
    zeroed = replace(params, k0=0.0, k1=0.0, k2=0.0)
    return _worst("killing_tensor", chain.from_iterable(
        _residuals(zeroed, obs, points) for obs in quadratics))


def _rel(lhs, rhs, terms=0.0):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs), terms)


def identity_residual(params, name, fn, points):
    """Worst gap of `fn`'s (lhs, rhs) pairs, each relative to max(1, |LHS|,
    |RHS|), or also to a third entry, the size of the terms, where a pair
    carries one; `name` labels the check."""
    return _worst(f"identity:{name}", (
        (_rel(*pair), pt) for pt in points
        for pair in fn(params, *pt.as_tuple())))


def identity_suite(params, sample, points=None):
    """Structural identities (see `identity_residual`): the kinetic-Noether
    identity for every family, then the family's own."""
    points = points if points is not None else _points(params, sample)
    identities = ((("kinetic_noether", kinetic_noether),)
                  + lookup(params.family).identities)
    return {name: identity_residual(params, name, fn, points)
            for name, fn in identities}


def algebra_check(params, sample, points=None):
    """The closed bracket relations {A, B} = rhs the family carries (the
    third integral and the Runge-Lenz pair of the single-angle oscillator
    family); empty for families that carry none."""
    points = points if points is not None else _points(params, sample)
    out = {}
    for name, a, b, rhs in lookup(params.family).algebra:
        rows = zip(points, _rows(params, integral(params.family, a), points),
                   _rows(params, integral(params.family, b), points))
        out[name] = _worst(f"algebra:{name}", (
            (abs(row_bracket(fa, fb) - rhs(params, *pt.as_tuple()))
             / bracket_scale(fa[0], fb[0], pt), pt) for pt, fa, fb in rows))
    return out


def evolution_law_check(params, sample, points=None):
    """Complex evolution laws of the factor functions against H.

    na_prime: {M, H} = 2 i lam M and {N, H} = 2 i lam N with the
    (n-1)-inclusive lam convention; nd: {A, H} = -i (n-1) lam A and
    {N, H} = +i (n-1) lam N with lam = r^{2(n-1)} p_phi, plus conservation
    of both real components of the product A N.  Empty for families that
    carry no complex factor.
    """
    fam = lookup(params.family)
    points = points if points is not None else _points(params, sample)
    h_rows = _rows(params, integral(params.family, "H"), points)
    out = {}
    for label, (re, im), rate in fam.laws:
        # {Z,H} = i c Z componentwise: {Re,H} = -c Im, {Im,H} = +c Re
        res = []
        for pt, h, zr, zi in zip(points, h_rows, _rows(params, re, points),
                                 _rows(params, im, points)):
            c = rate(params, pt)
            scale = bracket_scale(math.hypot(zr[0], zi[0]), h[0], pt)
            res += [(abs(row_bracket(zr, h) + c * zi[0]) / scale, pt),
                    (abs(row_bracket(zi, h) - c * zr[0]) / scale, pt)]
        out[f"{label}_law"] = _worst(f"evolution:{label}_law", res)
    if fam.conserved_product:
        out["product_conserved"] = _worst(
            "evolution:product_conserved", chain.from_iterable(
                _residuals(params, part, points)
                for part in fam.conserved_product))
    return out


def _corruption_part(obs, params, probe_points):
    """The part a +10% corruption of `obs` scales, or None when inert.

    Preferably the couplings-zeroed momentum part; for integrals that are
    pure momentum polynomials, the p_phi-free part (see
    `observables.corruption_parts`).  A single-term integral admits no
    symmetry-breaking corruption (scaling a conserved quantity keeps it
    conserved), so None marks it inert.
    """
    full = [obs(params, *pt.as_tuple()) for pt in probe_points]
    for name, part in corruption_parts(obs, params).items():
        sub = [part(params, *pt.as_tuple()) for pt in probe_points]
        nonzero = max(abs(v) for v in sub)
        differs = max(abs(f - s) for f, s in zip(full, sub))
        if nonzero > 1e-9 and differs > 1e-9:
            return name
    return None


def corruption_suite(params, sample, points=None):
    """Max scaled residual of each corrupted integral; the harness is
    sensitive when every non-inert corruption lands well above tolerance."""
    points = points if points is not None else _points(params, sample)
    results = {}
    inert = []
    for obs in lookup(params.family).bound:
        part = _corruption_part(obs, params, points[:8])
        if part is None:
            inert.append(obs.name)
            continue
        res = _residuals(params, obs, points, variant=part)
        results[obs.name] = _worst(f"negative_control:{obs.name}", res)
    return results, tuple(inert)


def _require_finite(params, points):
    """Raise NonFinite unless H and every bound integral are finite at
    every sample point."""
    names, row = monitors(params)
    for pt in points:
        for name, val in zip(names, row(*pt.as_tuple())):
            if not math.isfinite(val):
                raise NonFinite(f"{name} is {val} at the sample point "
                                f"(r, phi, p_r, p_phi) = {pt.as_tuple()}")


def certificate(params, sample=None, config=None, corrupt=None):
    """Run every applicable check and aggregate the evidence.

    Check failures turn the verdict, never raise; a check that cannot run
    for structural reasons is recorded as skipped with its reason.
    Couplings so large that H, an integral or a check overflows, or that
    leave a residual NaN or infinite, raise NonFinite before a verdict is
    drawn.  `corrupt` names one integral to corrupt before the bracket
    suite, as a live demonstration that a broken claim fails the
    certificate.
    """
    if params.n == 1.0:
        raise DegenerateN("n = 1 degenerate (k_n = 0): P2 = -Pphi")
    sample = sample or SampleConfig()
    config = config or IntegratorConfig(t_end=10.0)
    points = _points(params, sample)
    try:
        _require_finite(params, points)
        checks = tuple(_checks(params, sample, config, points, corrupt))
    except (OverflowError, np.linalg.LinAlgError) as exc:
        # the SVD of the rank check fails only on partials that overflowed
        raise NonFinite(f"a check overflows at these couplings: "
                        f"{exc.args[-1]}") from None
    verdict = "pass" if all(c.passed is not False for c in checks) else "fail"
    return Certificate(params=params, checks=checks, verdict=verdict)


def _checks(params, sample, config, points, corrupt):
    suite = bracket_residual_suite(params, sample, points, corrupt=corrupt)
    for name, res in suite.items():
        note = "+10% corruption applied" if name == corrupt else None
        yield CheckResult(f"bracket:{name}", res, BRACKET_TOL,
                          res <= BRACKET_TOL, note=note)

    fam = lookup(params.family)
    if fam.commuting:
        pair = ",".join(fam.commuting)
        res = involution_check(params, pairs=[fam.commuting],
                               points=points)[pair]
        yield CheckResult(f"involution:{pair}", res, BRACKET_TOL,
                          res <= BRACKET_TOL)

    fraction, _ = independence_stats(params, sample, fam.triple, points)
    yield CheckResult(
        "independence:" + ",".join(fam.triple), 1.0 - fraction,
        1.0 - INDEPENDENCE_FRACTION, fraction >= INDEPENDENCE_FRACTION,
        note=f"full rank at {fraction:.1%} of {len(points)} points")

    try:
        res = killing_tensor_check(params, sample, points)
        yield CheckResult("killing_tensor", res, BRACKET_TOL,
                          res <= BRACKET_TOL)
    except NoQuadraticIntegral as exc:
        yield CheckResult("killing_tensor", None, BRACKET_TOL, None,
                          note=f"skipped: {exc}")

    for prefix, suite, tol in (
            ("identity", identity_suite, IDENTITY_TOL),
            ("algebra", algebra_check, BRACKET_TOL),
            ("evolution", evolution_law_check, EVOLUTION_TOL)):
        for name, res in suite(params, sample, points).items():
            yield CheckResult(f"{prefix}:{name}", res, tol, res <= tol)

    results, inert = corruption_suite(params, sample, points)
    if results:
        weakest = min(results.values())
        note = "passes when the corrupted residual exceeds tolerance"
        if inert:
            note += f"; inert (single-term): {','.join(inert)}"
        yield CheckResult("negative_control", weakest, CONTROL_FLOOR,
                          weakest > CONTROL_FLOOR, note=note)
    else:
        yield CheckResult("negative_control", None, CONTROL_FLOOR, None,
                          note="skipped: every bound integral is single-term")

    try:
        trajectory = integrate(params, points[0], config)
        rep = drift_report(trajectory, terms=monitor_terms(params))
        yield CheckResult(
            "drift", rep.worst, DRIFT_TOL, rep.worst <= DRIFT_TOL,
            note=f"{trajectory.termination} at t={trajectory.times[-1]:.3g}")
    except EmptyTrajectory as exc:
        yield CheckResult("drift", None, DRIFT_TOL, None,
                          note=f"skipped: {exc}")
