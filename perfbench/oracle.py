"""Output checks made apart from the program.

Plain-float Hamiltonians and Kepler-side integrals written out from the
paper's formulas, a central-difference Poisson bracket, and the checks
applied to every op's CSV or certificate.  Nothing here imports `pdmham`:
a fault in its dual numbers, brackets or families cannot also hide here.

Each check returns a list of problems; an empty list means the output
passed.
"""

import json
import math
import random
import re
import sys

# column names `pdm integrate` writes after H, per family
INTEGRALS = {
    "na_central": ("J1", "J11", "J22", "J12"),
    "na": ("Ja1", "Ja2", "Ja3"),
    "na_prime": ("Ja1p", "Ja2p", "Ja3p", "J2", "J3"),
    "nb": ("Jb1", "Jb2", "Jb3"),
    "nc": ("J1", "J2", "J3"),
    "nc1": ("Jc2", "Jc3"),
    "nc2": ("Jc2", "Jc3"),
    "nd": ("Jd2", "Jd3"),
}

H_MATCH_TOL = 1e-12      # CSV H against ours, relative to |T| + |U|
DRIFT_TOL = 1e-6         # H drift along the rows, relative to max(1, |H0|)
FD_BRACKET_TOL = 1e-5    # scaled central-difference {J, H}
FD_POINTS = 16
POLE_MARGIN = 0.1        # in u = (n - 1) phi, for the FD sample points

_SUMMARY = re.compile(
    r"(?P<term>\w+) at t=(?P<t>\S+), (?P<acc>\d+) steps "
    r"\((?P<rej>\d+) rejected\)")


def kinetic(n, r, p_r, p_phi):
    return 0.5 * r ** (2.0 * n) * (p_r * p_r + p_phi * p_phi / (r * r))


def potential(family, n, k0, k1, k2, r, phi):
    k = n - 1.0
    u = k * phi
    c, s = math.cos(u), math.sin(u)
    if family == "na_central":
        return k0 * r ** (-2.0 * k)
    if family == "na":
        return k0 * r ** (-2.0 * k) + r ** (2.0 * k) * (k1 / c ** 2
                                                        + k2 / s ** 2)
    if family == "na_prime":
        return k0 * r ** (-2.0 * k) + (k1 * c + k2 * s) * r ** (-k)
    if family == "nb":
        return (k0 * r ** (-2.0 * k) * (c * c + 4.0 * s * s)
                + k1 * r ** (2.0 * k) / c ** 2 + k2 * r ** (-k) * s)
    if family == "nc":
        return k0 * r ** k
    if family == "nc1":
        return k0 * r ** k + r ** (2.0 * k) * (k1 + k2 * c) / s ** 2
    if family == "nc2":
        return k0 * r ** k + r ** (2.0 * k) * (k1 + k2 * s) / c ** 2
    if family == "nd":
        return k0 * r ** k + r ** (0.5 * k) * (k1 * math.cos(0.5 * u)
                                               + k2 * math.sin(0.5 * u))
    raise ValueError(f"no oracle Hamiltonian for {family!r}")


def hamiltonian(case, r, phi, p_r, p_phi):
    return (kinetic(case["n"], r, p_r, p_phi)
            + potential(case["family"], case["n"], case["k0"], case["k1"],
                        case["k2"], r, phi))


def kepler_integrals(case):
    """Plain-float integrals of the Kepler-related families, by name."""
    n, k0, k1, k2 = case["n"], case["k0"], case["k1"], case["k2"]
    k = n - 1.0

    def noether(r, phi, p_r, p_phi):
        u = k * phi
        c, s = math.cos(u), math.sin(u)
        p1 = r ** n * (p_r * c + p_phi * s / r)
        p2 = r ** n * (p_r * s - p_phi * c / r)
        return u, c, s, p1, p2

    def j2(r, phi, p_r, p_phi):
        _, c, _, _, p2 = noether(r, phi, p_r, p_phi)
        return p2 * p_phi - k0 * c

    def j3(r, phi, p_r, p_phi):
        _, _, s, p1, _ = noether(r, phi, p_r, p_phi)
        return p1 * p_phi + k0 * s

    def jc2_1(r, phi, p_r, p_phi):
        u = k * phi
        return p_phi ** 2 + 2.0 * (k1 + k2 * math.cos(u)) / math.sin(u) ** 2

    def jc3_1(r, phi, p_r, p_phi):
        u = k * phi
        c, s2 = math.cos(u), math.sin(u) ** 2
        return (j2(r, phi, p_r, p_phi) - 2.0 * k1 * r ** k * c / s2
                - k2 * r ** k * (1.0 + c * c) / s2)

    def jc2_2(r, phi, p_r, p_phi):
        u = k * phi
        return p_phi ** 2 + 2.0 * (k1 + k2 * math.sin(u)) / math.cos(u) ** 2

    def jc3_2(r, phi, p_r, p_phi):
        u = k * phi
        s, c2 = math.sin(u), math.cos(u) ** 2
        return (j3(r, phi, p_r, p_phi) + 2.0 * k1 * r ** k * s / c2
                + k2 * r ** k * (1.0 + s * s) / c2)

    def jd2(r, phi, p_r, p_phi):
        u, c, s, _, p2 = noether(r, phi, p_r, p_phi)
        w = r ** (-0.5 * k)
        return (p2 * p_phi - k0 * c + k1 * s * math.sin(0.5 * u) * w
                - k2 * s * math.cos(0.5 * u) * w)

    def jd3(r, phi, p_r, p_phi):
        u, c, s, p1, _ = noether(r, phi, p_r, p_phi)
        w = r ** (-0.5 * k)
        return (p1 * p_phi + k0 * s + k1 * c * math.sin(0.5 * u) * w
                - k2 * c * math.cos(0.5 * u) * w)

    table = {
        "nc": {"J1": lambda r, phi, p_r, p_phi: p_phi, "J2": j2, "J3": j3},
        "nc1": {"Jc2": jc2_1, "Jc3": jc3_1},
        "nc2": {"Jc2": jc2_2, "Jc3": jc3_2},
        "nd": {"Jd2": jd2, "Jd3": jd3},
    }
    return table[case["family"]]


def fd_bracket(f, g, point):
    """Central-difference {f, g} over (r, phi; p_r, p_phi)."""
    eps3 = sys.float_info.epsilon ** (1.0 / 3.0)
    grads = []
    for fn in (f, g):
        parts = []
        for i in range(4):
            h = eps3 * max(1.0, abs(point[i]))
            hi, lo = list(point), list(point)
            hi[i] += h
            lo[i] -= h
            parts.append((fn(*hi) - fn(*lo)) / (2.0 * h))
        grads.append(parts)
    a, b = grads
    return (a[0] * b[2] - a[2] * b[0]) + (a[1] * b[3] - a[3] * b[1])


def _pole_distance(family, u):
    if family == "nc1":
        return abs(math.remainder(u, math.pi))
    if family == "nc2":
        return abs(math.remainder(u - 0.5 * math.pi, math.pi))
    return math.inf


def fd_points(case, seed, count=FD_POINTS):
    """Seeded points in the certificate's sampling box, off angular poles."""
    rng = random.Random(seed)
    k = case["n"] - 1.0
    points = []
    while len(points) < count:
        pt = (rng.uniform(0.5, 2.0), rng.uniform(0.05, 2.0 * math.pi - 0.05),
              rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if _pole_distance(case["family"], k * pt[1]) > POLE_MARGIN:
            points.append(pt)
    return points


def parse_summary(line):
    """(termination, t_final, accepted, rejected) from the summary line."""
    m = _SUMMARY.search(line)
    if m is None:
        return None
    return (m["term"], float(m["t"]), int(m["acc"]), int(m["rej"]))


def check_trajectory(csv_text, summary_line, case):
    """Problems with one `pdm integrate` output; [] when it is right."""
    problems = []
    parsed = parse_summary(summary_line)
    if parsed is None:
        return [f"unreadable summary line {summary_line!r}"]
    term, t_final, accepted, _ = parsed
    if term != "Completed" or abs(t_final - case["t_end"]) > 1e-9:
        problems.append(f"terminated {term} at t={t_final}")
    lines = csv_text.splitlines()
    header = lines[0].split(",") if lines else []
    want = ["t", "r", "phi", "p_r", "p_phi", "H",
            *INTEGRALS[case["family"]]]
    if header != want:
        return problems + [f"header {header} != {want}"]
    if len(lines) - 1 != accepted + 1:
        problems.append(f"{len(lines) - 1} rows for {accepted} accepted "
                        f"steps")
    h0 = None
    worst_match = worst_drift = 0.0
    t_prev = -math.inf
    for line in lines[1:]:
        t, r, phi, p_r, p_phi, h_csv = map(float, line.split(",")[:6])
        if not t > t_prev:
            problems.append(f"time not increasing at t={t!r}")
            break
        t_prev = t
        kin = kinetic(case["n"], r, p_r, p_phi)
        pot = potential(case["family"], case["n"], case["k0"], case["k1"],
                        case["k2"], r, phi)
        h_own = kin + pot
        worst_match = max(worst_match,
                          abs(h_csv - h_own) / (abs(kin) + abs(pot)))
        if h0 is None:
            h0 = h_own
        worst_drift = max(worst_drift, abs(h_own - h0) / max(1.0, abs(h0)))
    if abs(t_prev - case["t_end"]) > 1e-9:
        problems.append(f"last row at t={t_prev}")
    if worst_match > H_MATCH_TOL:
        problems.append(f"H column off by {worst_match:.3e} (relative)")
    if worst_drift > DRIFT_TOL:
        problems.append(f"H drift {worst_drift:.3e} > {DRIFT_TOL}")
    return problems


def check_certificate(json_text, case, fd_seed):
    """Problems with one `pdm check` certificate; [] when it is right."""
    try:
        cert = json.loads(json_text)
    except json.JSONDecodeError as exc:
        return [f"certificate is not JSON: {exc}"]
    problems = []
    got = (cert.get("family"), cert.get("n"), cert.get("couplings"))
    want = (case["family"], case["n"],
            {"k0": case["k0"], "k1": case["k1"], "k2": case["k2"]})
    if got != want:
        problems.append(f"certificate is for {got}, asked for {want}")
    if cert.get("verdict") != "pass":
        problems.append(f"verdict {cert.get('verdict')!r}")
    checks = {c["name"]: c for c in cert.get("checks", [])}
    for name in INTEGRALS[case["family"]]:
        if f"bracket:{name}" not in checks:
            problems.append(f"no bracket check for {name}")
    for name in ("drift", "killing_tensor", "negative_control"):
        if name not in checks:
            problems.append(f"no {name} check")
    for name, c in checks.items():
        if c["pass"] is None:
            continue
        ok = (c["max_residual"] > c["tolerance"] if name == "negative_control"
              else c["max_residual"] <= c["tolerance"])
        if not (c["pass"] and ok):
            problems.append(f"{name}: residual {c['max_residual']} vs "
                            f"tolerance {c['tolerance']}")

    def h(r, phi, p_r, p_phi):
        return hamiltonian(case, r, phi, p_r, p_phi)

    worst = 0.0
    for pt in fd_points(case, fd_seed):
        p_scale = max(1.0, abs(pt[2]), abs(pt[3]))
        for fn in kepler_integrals(case).values():
            scale = max(1.0, abs(fn(*pt)), abs(h(*pt))) * p_scale ** 2
            worst = max(worst, abs(fd_bracket(fn, h, pt)) / scale)
    if worst > FD_BRACKET_TOL:
        problems.append(f"central-difference bracket {worst:.3e} > "
                        f"{FD_BRACKET_TOL}")
    return problems
