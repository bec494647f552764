"""Hamiltonian flow: the exact vector field, traced once per parameter set
from the dual gradient of H, and the Dormand-Prince 8(5,3) integrator
(DOP853) with conservation monitors.

The eighth-order solution propagates (local extrapolation).  Its error is
estimated as in Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.10: a
fifth-order estimate, damped where a third-order one is much larger.
Step control is per step: a step is accepted when that estimate, scaled by
the tolerances, is at most 1, and the next step is h * 0.9 err^(-1/8),
the factor clamped to [0.2, 10].  The tolerances inside are `rtol` and
`atol` times TOL_FACTOR: per-step control lets the global error grow with
the number of steps, and at the factor's value the end states at t = 50
stay within about 1e-11 of closed-form flows at the default rtol.  The new
state's field is evaluated only once a step passes the error test, and
seeds the next step.  Monitors (H plus every family integral) are
evaluated at accepted steps.

One step (the eleven new stages, the new state and both error estimates)
is Python source generated from the tableau at import and compiled once:
straight-line float code over the nonzero coefficients, in the order a
plain loop over the tableau rows would add them, so the floats are the
same as that loop's.
"""

import math
from dataclasses import astuple, dataclass
from math import isfinite

from .catalog import CATALOG
from .errors import EmptyTrajectory, PdmError
from .phase import POLE_MARGIN, check_point, singular_distance
from .tracing import monitors, on_columns, vector_field

COMPLETED = "Completed"
SINGULARITY = "SingularityApproach"
STEP_FAILURE = "StepFailure"

# a step that leaves this radial range ends the run as SingularityApproach
R_GUARD_MIN = 1e-3
R_GUARD_MAX = 1e3
# relative monitor drift above which the certificate's drift check fails
DRIFT_TOL = 1e-6
# step sizes: the first trial step, the size below which a run stops, and
# the largest step
H_INIT = 1e-3
H_MIN = 1e-12
H_MAX = 1.0

# the tolerances inside are the configured ones times this factor, chosen
# by measurement against closed-form flows (tests/test_closed_form.py):
# 1e-3 and 3e-4 leave oscillator end states 2.7e-11 and 9.9e-12 off, 1e-4
# leaves them 5.0e-12 off, and 3e-5 takes 15% more steps
TOL_FACTOR = 1e-4

# Dormand-Prince 8(5,3) tableau, Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.10: stage rows A (stage 1 is f(y); the field is autonomous, so
# the nodes are not needed), eighth-order weights B, fifth-order error
# weights E5, and E3 = B - (third-order weights)
A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
)
B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2)
E5 = (0.1312004499419488073250102996e-01, 0.0, 0.0, 0.0, 0.0,
      -0.1225156446376204440720569753e+01,
      -0.4957589496572501915214079952,
      0.1664377182454986536961530415e+01,
      -0.3503288487499736816886487290,
      0.3341791187130174790297318841,
      0.8192320648511571246570742613e-01,
      -0.2235530786388629525884427845e-01)
# the third-order weights, on stages 1, 9 and 12
_BHH = {0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-01}
E3 = tuple(b - _BHH.get(i, 0.0) for i, b in enumerate(B))


@dataclass(frozen=True)
class IntegratorConfig:
    t_end: float = 50.0
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if not all(map(isfinite, astuple(self))):
            raise ValueError("integrator settings must be finite")
        if self.rtol <= 0.0 or self.atol <= 0.0 or self.t_end <= 0.0:
            raise ValueError("tolerances and horizon must be positive")


@dataclass(frozen=True)
class Trajectory:
    times: tuple
    states: tuple           # of (r, phi, p_r, p_phi)
    monitors: dict          # name -> tuple, one value per state
    termination: str
    n_accepted: int
    n_rejected: int
    n_field_evals: int = 0
    # rejections because a stage or the new state's field was not finite;
    # the rest of n_rejected failed the error test
    n_rejected_invalid: int = 0

    def __len__(self):
        return len(self.times)

    @property
    def n_rejected_error(self):
        return self.n_rejected - self.n_rejected_invalid

    def step_sizes(self):
        """(min, median, max) accepted step size; None with no steps."""
        if len(self.times) < 2:
            return None
        h = sorted(b - a for a, b in zip(self.times, self.times[1:]))
        # the median as statistics.median takes it: the middle value, or
        # the mean of the two middle values
        i = len(h) // 2
        median = h[i] if len(h) % 2 else (h[i - 1] + h[i]) / 2
        return h[0], median, h[-1]


# the components of the vector field, as messages name them
_FIELD = ("dr/dt", "dphi/dt", "dp_r/dt", "dp_phi/dt")


def hamilton_vector_field(params, point):
    """(dr/dt, dphi/dt, dp_r/dt, dp_phi/dt) = symplectic gradient of H."""
    return vector_field(params)(*point.as_tuple())


def _at_start(what, row, names, y):
    """row(*y) at the initial state y, where every value is finite: a
    PdmError names the first that is not, or what `what` raised."""
    try:
        values = row(*y)
        bad = [f"{name} is {v}" for name, v in zip(names, values)
               if not isfinite(v)]
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise PdmError(f"{what} at the initial state: {exc}") from None
    if bad:
        raise PdmError(f"{bad[0]} at the initial state (r, phi, p_r, p_phi) "
                       f"= {y}")
    return values


def _try_field(field, *y):
    # power/overflow failures past a singularity count as an invalid stage,
    # and so does a stage that drives r below 0: a non-integer power of it
    # is complex, which math rejects with TypeError.  x - x is NaN exactly
    # when x is +-inf or NaN, so one isfinite tests all four components
    try:
        k = k0, k1, k2, k3 = field(*y)
        if isfinite((k0 - k0) + (k1 - k1) + (k2 - k2) + (k3 - k3)):
            return k
    except (ArithmeticError, ValueError, TypeError):
        pass
    return None


def _step_source():
    """Source of `_step(field, y0..y3, h, k0_0..k0_3)`, one DOP853 step as
    straight-line float code, k0 being the first stage, f(y).  Each sum
    folds y + (h*c)*k left to right over the nonzero coefficients of its
    row (0.0 + c*k for e5 and e3), with each h*c computed once.  The step
    returns the 12 floats y_new, e5 and e3, or the index of the first
    invalid stage, which is also the number of field evaluations it
    made."""
    def fold(start, terms, i):
        return " + ".join([start] + [f"{c} * k{j}_{i}" for j, c in terms])

    lines = ["def _step(field, y0, y1, y2, y3, h, k0_0, k0_1, k0_2, k0_3):"]
    for s, row in enumerate(A[1:] + (B,), 1):
        nonzero = [(j, c) for j, c in enumerate(row) if c != 0.0]
        lines += [f"    c{s}_{j} = h * ({c!r})" for j, c in nonzero]
        sums = [fold(f"y{i}", [(j, f"c{s}_{j}") for j, _ in nonzero], i)
                for i in range(4)]
        if row is B:
            break
        # an invalid stage as in _try_field
        ks = [f"k{s}_{i}" for i in range(4)]
        lines += ["    try:",
                  f"        {', '.join(ks)} = field({', '.join(sums)})",
                  "        if not isfinite("
                  + " + ".join(f"({k} - {k})" for k in ks) + "):",
                  f"            return {s}",
                  "    except (ArithmeticError, ValueError, TypeError):",
                  f"        return {s}"]
    errors = [fold("0.0", [(j, f"({c!r})") for j, c in enumerate(weights)
                           if c != 0.0], i)
              for weights in (E5, E3) for i in range(4)]
    lines.append("    return " + ", ".join(sums + errors))
    return "\n".join(lines)


_namespace = {"isfinite": isfinite}
exec(compile(_step_source(), "<dop853 step>", "exec"), _namespace)
_step = _namespace["_step"]


def integrate(params, initial, config=None):
    """Integrate Hamilton's equations from `initial`.

    Refuses a start where the monitors or the vector field are not
    finite, or raise.  Never raises mid-run: early stops are reported
    through the trajectory's termination tag (guard crossings as
    SingularityApproach, a collapsed step size with finite values as
    StepFailure).
    """
    config = config or IntegratorConfig()
    check_point(initial, params)
    field = vector_field(params)
    names, monitor_row = monitors(params)
    rtol = config.rtol * TOL_FACTOR
    atol = config.atol * TOL_FACTOR
    t_end, h_min, h_max = config.t_end, H_MIN, H_MAX
    t_last = t_end - 1e-12
    # the pole guard runs only where there are poles: elsewhere
    # singular_distance is +inf
    poles = CATALOG[params.family].poles
    family, n = params.family, params.n
    stages = len(A) - 1

    y = initial.as_tuple()
    y0, y1, y2, y3 = y
    t = 0.0
    times = [t]
    states = [y]
    # one flat list of monitor rows keeps per-step storage to the floats
    mon_values = list(_at_start("monitors", monitor_row, names, y))
    k0, k1, k2, k3 = _at_start("vector field", field, _FIELD, y)
    n_evals = 1
    termination = COMPLETED
    n_accepted = 0
    n_rejected = 0
    n_invalid = 0
    h = min(H_INIT, t_end)

    while termination == COMPLETED and t < t_last:
        h = min(h, h_max, t_end - t)
        out = _step(field, y0, y1, y2, y3, h, k0, k1, k2, k3)
        if isinstance(out, int):
            n_evals += out
            k = None
        else:
            n_evals += stages
            z0, z1, z2, z3, e0, e1, e2, e3, d0, d1, d2, d3 = out
            # each component scaled by atol + rtol * max(|y|, |y_new|),
            # `b if b > a else a` being max(a, b), NaN included; the sums
            # of squares need no 0.0 to start from, as 0.0 + x*x is x*x
            a, b = abs(y0), abs(z0)
            scale = atol + rtol * (b if b > a else a)
            p0, q0 = e0 / scale, d0 / scale
            a, b = abs(y1), abs(z1)
            scale = atol + rtol * (b if b > a else a)
            p1, q1 = e1 / scale, d1 / scale
            a, b = abs(y2), abs(z2)
            scale = atol + rtol * (b if b > a else a)
            p2, q2 = e2 / scale, d2 / scale
            a, b = abs(y3), abs(z3)
            scale = atol + rtol * (b if b > a else a)
            p3, q3 = e3 / scale, d3 / scale
            sum5 = p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3
            sum3 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
            # the fifth-order estimate, damped where the third-order one is
            # much larger (Hairer, Norsett & Wanner's err); an overflowing
            # estimate reads NaN and is rejected
            denom = sum5 + 0.01 * sum3
            err = h * sum5 / math.sqrt(4.0 * denom) if denom != 0.0 else 0.0
            if not err <= 1.0:
                n_rejected += 1
                h_next = h * max(0.2, 0.9 * err ** -0.125)
                if h_next < h_min:
                    termination = STEP_FAILURE
                    break
                h = h_next
                continue
            # the new state's field is the next step's first stage
            k = _try_field(field, z0, z1, z2, z3)
            n_evals += 1
        # a stage, or the new state's field, was not finite
        if k is None:
            n_rejected += 1
            n_invalid += 1
            h *= 0.25
            if h < h_min:
                termination = SINGULARITY
            continue

        if (not R_GUARD_MIN <= z0 <= R_GUARD_MAX
                or poles and singular_distance(family, n, z1) <= POLE_MARGIN):
            termination = SINGULARITY
            break
        t += h
        y0, y1, y2, y3 = z0, z1, z2, z3
        k0, k1, k2, k3 = k
        n_accepted += 1
        times.append(t)
        states.append((z0, z1, z2, z3))
        mon_values.extend(monitor_row(z0, z1, z2, z3))
        h *= 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.125))
        # accepted steps can shrink without bound too (an orbit grazing a
        # pole); the last step, shortened to land on t_end, is exempt
        if h < h_min and t < t_last:
            termination = STEP_FAILURE
            break

    return Trajectory(
        times=tuple(times),
        states=tuple(states),
        monitors={name: tuple(mon_values[j::len(names)])
                  for j, name in enumerate(names)},
        termination=termination,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_field_evals=n_evals,
        n_rejected_invalid=n_invalid,
    )


def worst_drift(drifts):
    """The largest of `drifts`, from 0.0, or NaN where any is NaN, which
    `max` drops unless it comes first."""
    drifts = [0.0, *drifts]
    return math.nan if any(map(math.isnan, drifts)) else max(drifts)


def drift_report(trajectory, terms=None):
    """{name: rel_drift}: each monitor's drift relative to max(1, |initial
    value|), and also to the largest size of the monitor's terms along the
    trajectory when `terms` is a row function like
    `tracing.monitor_terms(params)`, run on the states' columns."""
    if len(trajectory) < 2:
        raise EmptyTrajectory(f"{len(trajectory)} recorded state(s)")
    sizes = [0.0] * len(trajectory.monitors)
    if terms is not None:
        import numpy as np
        sizes = np.max(on_columns(terms, np.asarray(trajectory.states)),
                       axis=1).tolist()
        if not all(map(isfinite, sizes)):
            raise PdmError("the size of a monitor's terms overflows")
    drifts = {}
    for (name, series), size in zip(trajectory.monitors.items(), sizes):
        j0 = float(series[0])
        max_abs = float(worst_drift(abs(v - j0) for v in series))
        drifts[name] = max_abs / max(1.0, abs(j0), size)
    return drifts
