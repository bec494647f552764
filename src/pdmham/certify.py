"""The superintegrability certifier.

Assembles per-family numerical evidence into a machine-readable
Certificate: bracket conservation for every bound integral, the commuting
pair where one is claimed, functional-independence ranks, the
Killing-tensor condition on quadratic momentum parts, structural
identities, complex evolution laws, a negative-control corruption probe,
and one trajectory drift check.

Every residual is deterministic given (params, sample seed, integrator
config).  Tolerances are module constants.  Serialization: top-level JSON
fields `family`, `n`, `couplings`, `checks` (array of {name, max_residual,
tolerance, pass}, plus `note` where a check was skipped or needs reading
guidance), `verdict`.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .brackets import (BRACKET_TOL, bracket_scale, gradient, poisson_bracket,
                       scaled_residual)
from .catalog import CATALOG, lookup
from .dynamics import DRIFT_TOL, IntegratorConfig, drift_report, integrate
from .errors import (DegenerateN, EmptyTrajectory, NoQuadraticIntegral,
                     UnknownIntegral)
from .families import hamiltonian
from .formulas import kinetic_noether
from .observables import family_integrals, family_observables, integral
from .phase import DomainBox, sample_points

# paired integrals whose mutual independence carries each family's claim
CLAIMED_TRIPLES = {name: fam.triple for name, fam in CATALOG.items()}

RANK_REL_THRESHOLD = 1e-8
CORRUPTION_FACTOR = 0.1

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
class ResidualStats:
    max_residual: float


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


def bracket_residual_suite(params, sample, points=None, corrupt=None):
    """Per-integral max scaled |{J, H}| over the sample.

    `corrupt` names one integral to replace by its +10% corrupted version,
    demonstrating end to end that the harness turns the verdict.
    """
    points = points if points is not None else _points(params, sample)
    if corrupt is not None and corrupt not in family_integrals(params.family):
        raise UnknownIntegral(
            f"{params.family} does not bind {corrupt!r}")
    out = {}
    for obs in family_observables(params.family):
        fn = obs
        if obs.name == corrupt:
            fn = corrupted(obs, params, points[:8])
            if fn is None:
                raise ValueError(
                    f"corruption of single-term integral {obs.name} is inert")
        residuals = [scaled_residual(fn, hamiltonian, params, pt)
                     for pt in points]
        out[obs.name] = ResidualStats(max(residuals))
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
    out = {}
    for name_a, name_b in pairs:
        obs_a = integral(params.family, name_a)
        obs_b = integral(params.family, name_b)
        out[f"{name_a},{name_b}"] = max(
            scaled_residual(obs_a, obs_b, params, pt) for pt in points)
    return out


def independence_rank(functions, params, point):
    """Numerical rank of the stacked phase-gradients and the singular values.

    Rank counts singular values above RANK_REL_THRESHOLD times the largest,
    the relative cut that keeps integrals of very different magnitude
    comparable.
    """
    if not 2 <= len(functions) <= 4:
        raise ValueError("rank check takes 2 to 4 functions")
    rows = [gradient(fn, params, point).as_tuple() for fn in functions]
    sv = np.linalg.svd(np.asarray(rows), compute_uv=False)
    if sv[0] == 0.0:
        return 0, sv
    return int(np.sum(sv > RANK_REL_THRESHOLD * sv[0])), sv


def independence_stats(params, sample, names=None, points=None):
    """Fraction of sampled points where the claimed triple has full rank.

    Returns (fraction, failures); each failure carries the point and its
    singular values for inspection.
    """
    points = points if points is not None else _points(params, sample)
    names = names or lookup(params.family).triple
    functions = [integral(params.family, name) for name in names]
    failures = []
    hits = 0
    for pt in points:
        rank, sv = independence_rank(functions, params, pt)
        if rank == len(functions):
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
    quadratics = [obs for obs in family_observables(params.family)
                  if obs.degree == 2]
    if not quadratics:
        raise NoQuadraticIntegral(
            f"{params.family} binds no quadratic integral")
    points = points if points is not None else _points(params, sample)
    zeroed = replace(params, k0=0.0, k1=0.0, k2=0.0)
    worst = 0.0
    for obs in quadratics:
        def kpart(_params, r, phi, p_r, p_phi, _obs=obs):
            return _obs(zeroed, r, phi, p_r, p_phi)

        worst = max(worst,
                    max(scaled_residual(kpart, hamiltonian, zeroed, pt)
                        for pt in points))
    return worst


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def identity_suite(params, sample, points=None):
    """Structural identities, pointwise, relative to max(1, |LHS|, |RHS|):
    the kinetic-Noether identity for every family, then the family's own."""
    points = points if points is not None else _points(params, sample)
    identities = ((("kinetic_noether", kinetic_noether),)
                  + lookup(params.family).identities)
    out = {}
    for name, fn in identities:
        out[name] = max(max(_rel(lhs, rhs)
                            for lhs, rhs in fn(params, *pt.as_tuple()))
                        for pt in points)
    return out


def algebra_check(params, sample, points=None):
    """The closed bracket relations {A, B} = rhs the family carries (the
    third integral and the Runge-Lenz pair of the single-angle oscillator
    family); empty for families that carry none."""
    points = points if points is not None else _points(params, sample)
    out = {}
    for name, name_a, name_b, rhs in lookup(params.family).algebra:
        obs_a = integral(params.family, name_a)
        obs_b = integral(params.family, name_b)
        worst = 0.0
        for pt in points:
            args = (params,) + pt.as_tuple()
            res = abs(poisson_bracket(obs_a, obs_b, params, pt) - rhs(*args))
            worst = max(worst, res / bracket_scale(obs_a(*args),
                                                   obs_b(*args), pt))
        out[name] = worst
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
    out = {}
    for label, (re_fn, im_fn), rate in fam.laws:
        # {Z,H} = i c Z componentwise: {Re,H} = -c Im, {Im,H} = +c Re
        worst = 0.0
        for pt in points:
            args = (params,) + pt.as_tuple()
            c = rate(params, pt)
            zr, zi = re_fn(*args), im_fn(*args)
            h_val = hamiltonian(*args)
            scale = bracket_scale(math.hypot(zr, zi), h_val, pt)
            res_r = abs(poisson_bracket(re_fn, hamiltonian, params, pt)
                        + c * zi)
            res_i = abs(poisson_bracket(im_fn, hamiltonian, params, pt)
                        - c * zr)
            worst = max(worst, max(res_r, res_i) / scale)
        out[f"{label}_law"] = worst

    if fam.conserved_product:
        prod_re, prod_im = fam.conserved_product
        out["product_conserved"] = max(
            max(scaled_residual(prod_re, hamiltonian, params, pt),
                scaled_residual(prod_im, hamiltonian, params, pt))
            for pt in points)
    return out


def corrupted(obs, params, probe_points):
    """A +10% single-part corruption of an integral, or None when inert.

    The corruption scales one group of same-coefficient terms by 1.1:
    preferentially the couplings-zeroed momentum part; for integrals that
    are pure momentum polynomials, the p_phi-free part.  A single-term
    integral admits no symmetry-breaking corruption (scaling a conserved
    quantity keeps it conserved), so None marks it inert.
    """
    zeroed = replace(params, k0=0.0, k1=0.0, k2=0.0)

    def mom_part(_params, r, phi, p_r, p_phi):
        return obs(zeroed, r, phi, p_r, p_phi)

    def radial_part(_params, r, phi, p_r, p_phi):
        return obs(params, r, phi, p_r, 0.0)

    def spread(part):
        full = [obs(params, *pt.as_tuple()) for pt in probe_points]
        sub = [part(params, *pt.as_tuple()) for pt in probe_points]
        nonzero = max(abs(v) for v in sub)
        differs = max(abs(f - s) for f, s in zip(full, sub))
        return nonzero > 1e-9 and differs > 1e-9

    part = None
    if spread(mom_part):
        part = mom_part
    elif spread(radial_part):
        part = radial_part
    if part is None:
        return None

    def corrupt(p, r, phi, p_r, p_phi):
        return obs(p, r, phi, p_r, p_phi) + CORRUPTION_FACTOR * part(
            p, r, phi, p_r, p_phi)

    return corrupt


def corruption_suite(params, sample, points=None):
    """Max scaled residual of each corrupted integral; the harness is
    sensitive when every non-inert corruption lands well above tolerance."""
    points = points if points is not None else _points(params, sample)
    probes = points[:8]
    results = {}
    inert = []
    for obs in family_observables(params.family):
        broken = corrupted(obs, params, probes)
        if broken is None:
            inert.append(obs.name)
            continue
        results[obs.name] = max(
            scaled_residual(broken, hamiltonian, params, pt) for pt in points)
    return results, tuple(inert)


def certificate(params, sample=None, config=None, corrupt=None):
    """Run every applicable check and aggregate the evidence.

    Check failures turn the verdict, never raise; a check that cannot run
    for structural reasons is recorded as skipped with its reason.
    `corrupt` names one integral to corrupt before the bracket suite, as a
    live demonstration that a broken claim fails the certificate.
    """
    if params.n == 1.0:
        raise DegenerateN("n = 1 degenerate (k_n = 0): P2 = -Pphi")
    sample = sample or SampleConfig()
    config = config or IntegratorConfig(t_end=10.0)
    points = _points(params, sample)
    checks = []

    suite = bracket_residual_suite(params, sample, points, corrupt=corrupt)
    for name, stats in suite.items():
        note = "+10% corruption applied" if name == corrupt else None
        checks.append(CheckResult(
            f"bracket:{name}", stats.max_residual, BRACKET_TOL,
            stats.max_residual <= BRACKET_TOL, note=note))

    fam = lookup(params.family)
    if fam.commuting:
        pair = ",".join(fam.commuting)
        res = involution_check(params, pairs=[fam.commuting],
                               points=points)[pair]
        checks.append(CheckResult(
            f"involution:{pair}", res, BRACKET_TOL, res <= BRACKET_TOL))

    fraction, _ = independence_stats(params, sample, fam.triple, points)
    checks.append(CheckResult(
        "independence:" + ",".join(fam.triple), 1.0 - fraction,
        1.0 - INDEPENDENCE_FRACTION, fraction >= INDEPENDENCE_FRACTION,
        note=f"full rank at {fraction:.1%} of {len(points)} points"))

    try:
        res = killing_tensor_check(params, sample, points)
        checks.append(CheckResult(
            "killing_tensor", res, BRACKET_TOL, res <= BRACKET_TOL))
    except NoQuadraticIntegral as exc:
        checks.append(CheckResult(
            "killing_tensor", None, BRACKET_TOL, None,
            note=f"skipped: {exc}"))

    for prefix, suite, tol in (
            ("identity", identity_suite, IDENTITY_TOL),
            ("algebra", algebra_check, BRACKET_TOL),
            ("evolution", evolution_law_check, EVOLUTION_TOL)):
        for name, res in suite(params, sample, points).items():
            checks.append(CheckResult(f"{prefix}:{name}", res, tol,
                                      res <= tol))

    results, inert = corruption_suite(params, sample, points)
    if results:
        weakest = min(results.values())
        note = "passes when the corrupted residual exceeds tolerance"
        if inert:
            note += f"; inert (single-term): {','.join(inert)}"
        checks.append(CheckResult(
            "negative_control", weakest, CONTROL_FLOOR,
            weakest > CONTROL_FLOOR, note=note))
    else:
        checks.append(CheckResult(
            "negative_control", None, CONTROL_FLOOR, None,
            note="skipped: every bound integral is single-term"))

    try:
        trajectory = integrate(params, points[0], config)
        rep = drift_report(trajectory)
        checks.append(CheckResult(
            "drift", rep.worst, DRIFT_TOL, rep.worst <= DRIFT_TOL,
            note=f"{trajectory.termination} at t={trajectory.times[-1]:.3g}"))
    except EmptyTrajectory as exc:
        checks.append(CheckResult(
            "drift", None, DRIFT_TOL, None, note=f"skipped: {exc}"))

    verdict = "pass" if all(c.passed is not False for c in checks) else "fail"
    return Certificate(
        params=params,
        checks=tuple(checks),
        verdict=verdict,
    )
