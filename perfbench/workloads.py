"""Seeded inputs and oracles for the three benchmark workloads.

Each workload is a fixed job: a list of operations generated from the seed.
An operation is one call into the package (`classify_blowup`, or
`singularflow.cli.main(["sweep", ...])`) plus an oracle that checks its
output against a closed form or a known verdict and returns a digest of the
output for the determinism check.  The seed only moves inputs inside regions
whose verdict is known; the package sees nothing but the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

ALPHA = 1.0 / 3.0
ALPHA_TEXT = "0.3333333333333333"

# sphere3d: the defocusing latitude cycle y3 = +1/2 has period 2 pi and
# radial mean 1/4 (F_r = (1 - y3^2)/4 + y3^2/4 on it), both in closed form.
CYCLE_PERIOD = 2.0 * math.pi
CYCLE_MEAN_FR = 0.25
CYCLE_Y3 = 0.5

# Collapse rays and F_r on them: saddle2d at (-1, 0) and (0, -1), sphere3d at
# the south pole.  On such a ray t_b = r0^(1-alpha) / ((alpha - 1) F_r).
RAYS = {
    "ray_saddle_w": ("saddle2d", (-1.0, 0.0), -1.0),
    "ray_saddle_s": ("saddle2d", (0.0, -1.0), -1.0),
    "ray_sphere_s": ("sphere3d", (0.0, 0.0, -1.0), -0.5),
}

# Strata of the classify ensemble: (label, centre, half-width[, verdict]).
# Saddle centres are polar angles in degrees, sphere centres are latitudes
# y3.  The cost of a call is set by the doubling stage at which the radial
# average stabilizes, which depends on the start direction only; each centre
# sits inside a plateau of that stage, so the seeded jitter (and the seeded
# radius and longitude) moves the inputs but not the cost class.
SADDLE_STRATA = (
    ("saddle_blowup_a", 120.0, 6.0, "blowup"),   # left half-plane, s -> budget 2e4
    ("saddle_blowup_b", 220.0, 5.0, "blowup"),   # left half-plane, stage 16384
    ("saddle_escape_a", 70.0, 6.0, "escape_to_infinity"),   # x1, x2 > 0, budget 2e4
    ("saddle_escape_b", 40.0, 3.0, "escape_to_infinity"),   # x1, x2 > 0, stage 16384
)
SPHERE_COLLAPSE_STRATA = (
    ("sphere_collapse_a", -0.825, 0.015),  # stage 2048
    ("sphere_collapse_b", -0.725, 0.015),  # stage 4096
)
# Escape onto the y3 = 1/2 cycle from |y3 - 1/2| in [0.02, 0.03]: stage 512,
# about 6k steps of size ~0.086.  Starts near the band edges (|y3 - 1/2| near
# 0.2) need stage 4096 and 15 s or more per call.
SPHERE_CYCLE_OFFSET = (0.02, 0.03)

TRAP_G0 = (1.0, 1.3)
EXPEL_G0 = (1.0, -2.0)
G0_JITTER = 0.05  # verdicts hold for +-0.1 in each component
TRAP_NUS = tuple(0.1 * 0.5**k for k in range(6))
EXPEL_NUS = (0.1, 0.03, 0.01, 0.003, 0.001)
SPHERE_G0 = (0.0, 0.1, 1.0)
CYCLE_N = (1, 9)
PHASE_INCREMENT_TOL = 1e-2


@dataclass
class Outcome:
    ok: bool
    digest: str
    note: str = ""
    disagreement: bool = False


@dataclass
class Op:
    label: str
    group: str  # fixed_point | limit_cycle | trap | expel | cycle
    call: Callable  # call(ctx) -> result; the timed part
    check: Callable  # check(result, ctx) -> Outcome; untimed


class Context:
    """What an operation may use: the package modules, a field factory and
    a fresh output directory."""

    def __init__(self, mods, field_wrapper=None):
        self.mods = mods
        self.field_wrapper = field_wrapper
        self.workdir = None

    def field(self, name):
        alpha = None if name == "sphere3d" else ALPHA
        f = self.mods["fields"].builtin_field(name, alpha)
        return self.field_wrapper(f) if self.field_wrapper else f


# ---------------------------------------------------------------------------
# classify-basin
# ---------------------------------------------------------------------------

def _classify_op(label, group, field_name, x0, expect, target, t_b=None):
    r0 = math.sqrt(sum(v * v for v in x0))
    y0 = [v / r0 for v in x0]
    z0 = math.log(r0)

    def call(ctx):
        return ctx.mods["renorm"].classify_blowup(ctx.field(field_name), y0, z0)

    def check(v, ctx):
        digest = (
            f"{v.verdict}|{v.reason}|{v.t_b!r}|{v.s_budget!r}|"
            f"{v.averages.lower!r}|{v.averages.upper!r}"
        )
        if v.verdict != expect:
            return Outcome(False, digest, f"verdict {v.verdict}, expected {expect}")
        miss = target(list(v.renorm.y[-1]))
        if miss > 1e-3:
            return Outcome(False, digest, f"run ends {miss:.2e} away from its attractor")
        if t_b is not None and not abs(v.t_b - t_b) <= 1e-6:
            return Outcome(False, digest, f"t_b {v.t_b!r}, closed form {t_b!r}")
        return Outcome(True, digest)

    return Op(label, group, call, check)


def _near(point):
    return lambda y: math.sqrt(sum((a - b) ** 2 for a, b in zip(y, point)))


def _near_cycle(y):
    rho = math.hypot(y[0], y[1])
    return math.hypot(y[2] - CYCLE_Y3, rho - math.sqrt(1.0 - CYCLE_Y3**2))


def classify_basin(rng: random.Random, workdir: str):
    ops = []
    for label, centre, half, expect in SADDLE_STRATA:
        th = math.radians(centre + rng.uniform(-half, half))
        r = rng.uniform(0.2, 2.0)
        target = (-1.0, 0.0) if expect == "blowup" else (1.0, 0.0)
        ops.append(_classify_op(label, "fixed_point", "saddle2d",
                                (r * math.cos(th), r * math.sin(th)), expect, _near(target)))
    for label, centre, half in SPHERE_COLLAPSE_STRATA:
        ops.append(_classify_op(label, "fixed_point", "sphere3d",
                                _sphere_point(rng, centre + rng.uniform(-half, half)),
                                "blowup", _near((0.0, 0.0, -1.0))))
    off = rng.uniform(*SPHERE_CYCLE_OFFSET) * rng.choice((-1.0, 1.0))
    ops.append(_classify_op("sphere_cycle", "limit_cycle", "sphere3d",
                            _sphere_point(rng, CYCLE_Y3 + off),
                            "escape_to_infinity", _near_cycle))
    for label, (field_name, direction, fr) in RAYS.items():
        r = rng.uniform(0.2, 2.0)
        t_b = r ** (1.0 - ALPHA) / ((ALPHA - 1.0) * fr)
        ops.append(_classify_op(label, "fixed_point", field_name,
                                tuple(r * d for d in direction), "blowup",
                                _near(direction), t_b=t_b))
    return ops


def _sphere_point(rng, y3):
    lon = rng.uniform(0.0, 2.0 * math.pi)
    rho = math.sqrt(1.0 - y3 * y3)
    r = rng.uniform(0.2, 2.0)
    return (r * rho * math.cos(lon), r * rho * math.sin(lon), r * y3)


# ---------------------------------------------------------------------------
# sweeps through the command line
# ---------------------------------------------------------------------------

def _numbers(values):
    return ", ".join(repr(float(v)) for v in values)


def _saddle_config(g0, nus):
    return (
        "field = saddle2d\n"
        f"alpha = {ALPHA_TEXT}\n"
        "x0 = -1.0, 0.0\n"
        "t0 = 0.0\n"
        "t1 = 2.5\n"
        "regularization.kind = polynomial_blend\n"
        f"regularization.g0 = {_numbers(g0)}\n"
        f"nu.list = {_numbers(nus)}\n"
        "sweep.t_start = 0.0\n"
        "sweep.t_stop = 2.5\n"
        "sweep.t_points = 61\n"
    )


def _cycle_config(chi):
    return (
        "field = sphere3d\n"
        f"alpha = {ALPHA_TEXT}\n"
        "x0 = 0.0, 0.0, -1.0\n"
        "t0 = 0.0\n"
        "t1 = 4.01\n"
        "regularization.kind = polynomial_blend\n"
        f"regularization.g0 = {_numbers(SPHERE_G0)}\n"
        f"nu.geometric.T = {CYCLE_PERIOD!r}\n"
        f"nu.geometric.mean_fr = {CYCLE_MEAN_FR!r}\n"
        f"nu.geometric.chi = {chi!r}\n"
        f"nu.geometric.n_first = {CYCLE_N[0]}\n"
        f"nu.geometric.n_last = {CYCLE_N[1]}\n"
        "sweep.t_start = 3.1\n"
        "sweep.t_stop = 4.0\n"
        "sweep.t_points = 90\n"
    )


def _read_sweep(ctx):
    """Parsed sweep.json and a digest over it and every per-nu CSV."""
    h = hashlib.sha256()
    with open(os.path.join(ctx.workdir, "sweep.json"), "rb") as fh:
        raw = fh.read()
    h.update(raw)
    report = json.loads(raw)
    for name in report.get("trajectory_files") or []:
        if name is not None:
            with open(os.path.join(ctx.workdir, name), "rb") as fh:
                h.update(fh.read())
    return report, h.hexdigest()


def _sweep_op(label, group, cfg_path, check_report):
    def call(ctx):
        return ctx.mods["cli"].main(["sweep", cfg_path, "--outdir", ctx.workdir, "--quiet"])

    def check(rc, ctx):
        if rc != 0:
            return Outcome(False, f"rc={rc}", f"exit code {rc}")
        report, digest = _read_sweep(ctx)
        failed = [e for e in report["errors"] if e is not None]
        if failed:
            return Outcome(False, digest, f"{len(failed)} radii failed: {failed[0]}")
        return check_report(report, digest)

    return Op(label, group, call, check)


def _expect_verdict(verdict, n_nu):
    def check_report(report, digest):
        if len(report["nu"]) != n_nu:
            return Outcome(False, digest, f"{len(report['nu'])} radii, expected {n_nu}")
        if report["verdict"] != verdict:
            return Outcome(False, digest, f"verdict {report['verdict']}, expected {verdict}")
        return Outcome(True, digest)

    return check_report


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _jittered(rng, g0):
    return tuple(g + rng.uniform(-G0_JITTER, G0_JITTER) for g in g0)


def sweep_ray(rng: random.Random, workdir: str):
    ops = []
    for k in (1, 2):
        for group, g0, nus, verdict in (
            ("trap", TRAP_G0, TRAP_NUS, "trivial_zero"),
            ("expel", EXPEL_G0, EXPEL_NUS, "converged_to(fixed_ray)"),
        ):
            label = f"{group}_{k}"
            cfg = _write(os.path.join(workdir, label + ".cfg"),
                         _saddle_config(_jittered(rng, g0), nus))
            ops.append(_sweep_op(label, group, cfg, _expect_verdict(verdict, len(nus))))
    return ops


def _check_cycle(report, digest):
    n_nu = CYCLE_N[1] - CYCLE_N[0] + 1
    if len(report["nu"]) != n_nu:
        return Outcome(False, digest, f"{len(report['nu'])} radii, expected {n_nu}")
    if report["reference"] != "cycle_family":
        # the family is built only when the escape probe is expelled onto a
        # limit cycle with a positive radial mean
        return Outcome(False, digest, f"reference {report['reference']}, expected cycle_family")
    zs = report["matched_zeta"]
    span = CYCLE_PERIOD * CYCLE_MEAN_FR
    d = abs(zs[-1] - zs[-2]) % span
    inc = min(d, span - d)
    if not inc <= PHASE_INCREMENT_TOL:
        return Outcome(False, digest, f"zeta increment {inc:.3e} at n = {CYCLE_N[1]}")
    disagree = report["verdict"] != "converged_to(cycle_family)"
    note = f"zeta increment {inc:.3e}; library verdict {report['verdict']}"
    return Outcome(True, digest, note, disagreement=disagree)


def sweep_cycle(rng: random.Random, workdir: str):
    chi = rng.uniform(0.0, math.pi / 2)
    cfg = _write(os.path.join(workdir, "cycle.cfg"), _cycle_config(chi))
    return [_sweep_op("cycle", "cycle", cfg, _check_cycle)]


WORKLOADS = {
    "classify-basin": classify_basin,
    "sweep-ray": sweep_ray,
    "sweep-cycle": sweep_cycle,
}
