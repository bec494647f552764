"""Seeded inputs for the three workloads.

Each workload is a fixed table of base cases; the seed jitters every
coupling and initial-state parameter by a small relative amount.  The
jitter moves every residual, step and CSV row while keeping the work per
round within about a percent across seeds: drawing cases from a wide
distribution instead spreads the step count of a round over tens of
percent, which no steadiness bound could hold.

All cases are chosen so no op fails:
- every angular-pole weight is positive (k1 > |k2| on nc1/nc2, k1, k2 > 0
  on na/nb), because an orbit pulled into an attractive pole never
  returns from `integrate`;
- n is an integer, because non-integer n can raise inside `integrate`
  from some states only;
- Kepler-side initial states sit at an apsis of a bound orbit (below).
"""

import math
import random

JITTER = 0.01
T_END_INTEGRATE = 50.0
RTOL = 1e-10
ATOL = 1e-12

# family, n, (k0, k1, k2), (r0, phi0, pr0, pphi0); 7.7k-18.5k steps each
OSC_CASES = (
    ("na_central", 2, (0.5, 0.25, 0.125), (1.2, 0.5, 0.1, 0.8)),
    ("na", 2, (0.5, 0.25, 0.125), (1.2, 0.5, 0.1, 0.8)),
    ("na_prime", 2, (0.5, 0.25, 0.125), (1.2, 0.5, 0.1, 0.8)),
    ("nb", 2, (0.5, 0.25, 0.125), (1.2, 0.5, 0.1, 0.8)),
)

# family, n, (k0, k1, k2), (rho0, theta0, lfac); see kepler_state
KEPLER_CASES = (
    ("nc", -1, (-1.0, 0.0, 0.0), (1.5, 0.5, 0.9)),
    ("nc", 0, (-1.2, 0.0, 0.0), (1.8, 0.5, 0.9)),
    ("nc", 2, (-0.8, 0.0, 0.0), (1.5, 0.5, 0.9)),
    ("nc", 3, (-1.0, 0.0, 0.0), (1.5, 0.5, 0.9)),
    ("nc1", -1, (-1.0, 0.4, 0.1), (2.0, 1.5708, 0.9)),
    ("nc1", 0, (-1.1, 0.3, -0.1), (2.0, 1.5708, 0.9)),
    ("nc1", 2, (-0.9, 0.4, 0.2), (2.0, 1.5708, 0.9)),
    ("nc1", 3, (-1.0, 0.5, -0.2), (2.0, 1.5708, 0.9)),
    ("nc2", -1, (-1.0, 0.4, -0.1), (2.0, 0.3, 0.9)),
    ("nc2", 0, (-1.1, 0.3, 0.1), (2.0, 0.3, 0.9)),
    ("nc2", 2, (-0.9, 0.4, -0.2), (2.0, 0.3, 0.9)),
    ("nc2", 3, (-1.0, 0.5, 0.2), (2.0, 0.3, 0.9)),
    ("nd", -1, (-1.0, 0.3, -0.2), (1.0, 1.0, 0.8)),
    ("nd", 0, (-1.2, 0.3, 0.2), (1.5, 1.0, 0.9)),
    ("nd", 2, (-0.8, 0.2, -0.3), (1.5, 1.0, 0.9)),
    ("nd", 3, (-1.0, 0.3, -0.2), (1.0, 1.0, 0.8)),
)

# family, n, (k0, k1, k2), samples, sample seed passed to `pdm check`.
# The sample seed is fixed per case: the drift trajectory starts from the
# first sample point, and its step count varies 40x across sample seeds.
CHECK_SAMPLES = 1500
CHECK_CASES = (
    ("nc", 2, (-1.0, 0.0, 0.0), 101),
    ("nc", 3, (-1.0, 0.0, 0.0), 102),
    ("nc1", 0, (-1.0, 0.4, 0.1), 103),
    ("nc1", 3, (-1.0, 0.5, -0.2), 104),
    ("nc2", -1, (-1.0, 0.4, -0.1), 105),
    ("nc2", 2, (-1.0, 0.4, 0.2), 106),
    ("nd", 0, (-1.0, 0.5, -0.3), 107),
    ("nd", 3, (-1.0, 0.5, -0.3), 108),
)

WORKLOADS = ("integrate-osc", "integrate-kepler", "check-dense")


def kepler_state(n, k0, rho0, theta0, lfac):
    """An apsis of a bound Kepler orbit, mapped to (r, phi, p_r, p_phi).

    With k = n - 1, rho = |k|^-1 r^-k and theta = k phi make the metric
    flat and turn k0 r^k into the Coulomb term -mu/rho, mu = -k0/|k|.  At
    rho0 with p_rho = 0 and angular momentum lfac * sqrt(mu rho0) (lfac < 1)
    the orbit is a bound ellipse; p_phi = k p_theta.
    """
    k = n - 1.0
    mu = -k0 / abs(k)
    r0 = (abs(k) * rho0) ** (-1.0 / k)
    return (r0, theta0 / k, 0.0, k * lfac * math.sqrt(mu * rho0))


def _jitter(rng, values):
    return tuple(v * (1.0 + rng.uniform(-JITTER, JITTER)) for v in values)


def _model_argv(case):
    return ["--family", case["family"], "--n", repr(case["n"]),
            "--k0", repr(case["k0"]), "--k1", repr(case["k1"]),
            "--k2", repr(case["k2"])]


def _integrate_case(family, n, couplings, state, t_end=T_END_INTEGRATE):
    case = {"kind": "integrate", "family": family, "n": float(n),
            "k0": couplings[0], "k1": couplings[1], "k2": couplings[2],
            "state": state, "t_end": t_end}
    case["argv"] = (["integrate"] + _model_argv(case)
                    + ["--r0", repr(state[0]), "--phi0", repr(state[1]),
                       "--pr0", repr(state[2]), "--pphi0", repr(state[3]),
                       "--t-end", repr(t_end), "--rtol", repr(RTOL),
                       "--atol", repr(ATOL)])
    return case


def _check_case(family, n, couplings, samples, sample_seed):
    case = {"kind": "check", "family": family, "n": float(n),
            "k0": couplings[0], "k1": couplings[1], "k2": couplings[2],
            "samples": samples, "sample_seed": sample_seed}
    case["argv"] = (["check"] + _model_argv(case)
                    + ["--samples", str(samples), "--seed", str(sample_seed)])
    return case


def make_cases(workload, seed):
    """The op list of one round: dicts with `argv` (no --out) and inputs."""
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    if workload == "integrate-osc":
        for family, n, couplings, state in OSC_CASES:
            cases.append(_integrate_case(family, n, _jitter(rng, couplings),
                                         _jitter(rng, state)))
    elif workload == "integrate-kepler":
        for family, n, couplings, orbit in KEPLER_CASES:
            couplings = _jitter(rng, couplings)
            rho0, theta0, lfac = _jitter(rng, orbit)
            state = kepler_state(n, couplings[0], rho0, theta0, lfac)
            cases.append(_integrate_case(family, n, couplings, state))
    elif workload == "check-dense":
        for family, n, couplings, sample_seed in CHECK_CASES:
            cases.append(_check_case(family, n, _jitter(rng, couplings),
                                     CHECK_SAMPLES, sample_seed))
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return cases


def warmup_case(workload):
    """A short untimed op of the workload's kind, run before timing."""
    if workload == "check-dense":
        return _check_case("nc", 2, (-1.0, 0.0, 0.0), 50, 1)
    return _integrate_case("nc", 2, (-1.0, 0.0, 0.0),
                           kepler_state(2, -1.0, 1.5, 0.5, 0.9), t_end=2.0)
