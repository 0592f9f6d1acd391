"""Run configuration: line-oriented text with dotted keys.

Grammar (one entry per line, '#' starts a comment):

    key = value
    key.subkey = value

Values are an integer, a float, a comma-separated list of numbers, or a bare
token.  Parsing then emitting then parsing again returns an identical
mapping, which makes configs usable as reproducibility manifests.

Recognized keys (see README for the full table):

    field, alpha, x0, t0, t1, seed, outputs
    integrator.rtol / .atol / .max_step / .r_floor
    regularization.kind (polynomial_blend | preset1d)
    regularization.g0, regularization.sigma, nu, nu.list
    nu.geometric.T / .mean_fr / .chi / .n_first / .n_last
    sweep.t_start / .t_stop / .t_points
    classify.s_budget
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .continuation import geometric_sequence
from .errors import ConfigError, UnknownField
from .fields import BUILTIN_NAMES, builtin_field
from .integrators import IntegrationOptions


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        try:
            return [float(p.strip()) for p in raw.split(",") if p.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"bad list value {raw!r}") from exc
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw == "":
        raise ConfigError("empty value")
    return raw


def _emit_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        if len(v) == 1:
            return f"{float(v[0])!r},"  # trailing comma keeps it a list on reparse
        return ", ".join(repr(float(x)) for x in v)
    return str(v)


def parse_config(text: str) -> dict:
    """Parse config text into an ordered flat mapping of dotted keys."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key")
        out[key] = _parse_value(raw)
    return out


def _number(value, key: str) -> float:
    """value as a float, else ConfigError."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _integer(value, key: str) -> int:
    """value as an int, else ConfigError: a float only when it is a whole number."""
    number = value if isinstance(value, int) else _number(value, key)
    if isinstance(number, float) and not number.is_integer():  # NaN and inf fail too
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _vector(value, key: str, dimension: int) -> np.ndarray:
    """value as an array of dimension floats, else ConfigError."""
    try:
        v = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        v = None
    if v is None or v.shape != (dimension,):
        raise ConfigError(f"{key} must be {dimension} number(s), got {value!r}")
    return v


def _radius(value, key: str) -> float:
    """value as a regularization radius: a positive finite float, else ConfigError."""
    try:
        nu = float(value)
    except (TypeError, ValueError):
        nu = math.nan
    if not (math.isfinite(nu) and nu > 0):
        raise ConfigError(f"{key} must be positive and finite, got {value!r}")
    return nu


def emit_config(mapping: dict) -> str:
    return "\n".join(f"{k} = {_emit_value(v)}" for k, v in mapping.items()) + "\n"


@dataclass
class RunConfig:
    field_name: str
    alpha: float
    x0: np.ndarray
    t0: float = 0.0
    t1: float = 1.0
    seed: int = 0
    outputs: Optional[str] = None
    options: IntegrationOptions = dc_field(default_factory=IntegrationOptions)
    r_floor: float = 1e-10  # the ideal field's stop radius (fields.integrate_ideal)
    reg_kind: Optional[str] = None  # polynomial_blend | preset1d
    reg_g0: Optional[np.ndarray] = None
    reg_sigma: Optional[int] = None
    nu: Optional[float] = None
    nu_list: Optional[list] = None
    geo: Optional[dict] = None  # T, mean_fr, chi, n_first, n_last
    sweep_t: Optional[tuple] = None  # (t_start, t_stop, n_points)
    s_budget: float = 2.0e4

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return cls.from_mapping(parse_config(text))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
        return cls.from_text(text)

    @classmethod
    def from_mapping(cls, m: dict) -> "RunConfig":
        m = dict(m)

        def take(key, default=None):
            return m.pop(key, default)

        name = take("field")
        if name not in BUILTIN_NAMES:
            raise ConfigError(f"field must be one of {BUILTIN_NAMES}, got {name!r}")
        alpha = take("alpha")
        if alpha is None:
            raise ConfigError("alpha is required")
        alpha = _number(alpha, "alpha")
        if not (math.isfinite(alpha) and alpha < 1.0):
            raise ConfigError(f"alpha must be finite and < 1, got {alpha}")
        try:
            dimension = builtin_field(name, alpha).dimension
        except UnknownField as exc:
            raise ConfigError(str(exc)) from None
        x0 = take("x0")
        if x0 is None:
            raise ConfigError("x0 is required")
        x0 = _vector(x0, "x0", dimension)
        if not np.all(np.isfinite(x0)):
            raise ConfigError("x0 must be finite")
        t0 = _number(take("t0", 0.0), "t0")
        t1 = _number(take("t1", t0 + 1.0), "t1")
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ConfigError("t0 and t1 must be finite")
        if not t1 > t0:
            raise ConfigError(f"t1 must exceed t0 (got t0 = {t0!r}, t1 = {t1!r})")
        seed = _integer(take("seed", 0), "seed")
        outputs = take("outputs")
        if outputs is not None and not isinstance(outputs, str):
            raise ConfigError(f"outputs must be a directory name, got {outputs!r}")
        try:
            options = IntegrationOptions(
                rtol=_number(take("integrator.rtol", 1e-9), "integrator.rtol"),
                atol=_number(take("integrator.atol", 1e-12), "integrator.atol"),
                max_step=_number(take("integrator.max_step", math.inf), "integrator.max_step"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        r_floor = _number(take("integrator.r_floor", 1e-10), "integrator.r_floor")
        if not r_floor >= 0:  # NaN fails too
            raise ConfigError(f"integrator.r_floor must be nonnegative, got {r_floor!r}")

        reg_kind = take("regularization.kind")
        reg_g0 = take("regularization.g0")
        if reg_g0 is not None:
            reg_g0 = _vector(reg_g0, "regularization.g0", dimension)
        reg_sigma = take("regularization.sigma")
        if reg_sigma is not None:
            reg_sigma = _integer(reg_sigma, "regularization.sigma")
            if reg_sigma not in (-1, 0, 1):
                raise ConfigError(f"regularization.sigma must be +1, -1 or 0, got {reg_sigma}")
        if reg_kind is not None:
            if reg_kind not in ("polynomial_blend", "preset1d"):
                raise ConfigError(f"unknown regularization.kind {reg_kind!r}")
            if reg_kind == "polynomial_blend" and reg_g0 is None:
                raise ConfigError("polynomial_blend needs regularization.g0")
            if reg_kind == "preset1d" and reg_sigma is None:
                raise ConfigError("preset1d needs regularization.sigma (+1, -1 or 0)")
            if reg_kind == "preset1d" and dimension != 1:
                raise ConfigError(f"preset1d needs a one-dimensional field, not {name}")

        nu = take("nu")
        nu = _radius(nu, "nu") if nu is not None else None
        nu_list = take("nu.list")
        if nu_list is not None:
            nu_list = [_radius(v, "nu.list entry")
                       for v in (nu_list if isinstance(nu_list, list) else [nu_list])]
        geo = None
        if any(k.startswith("nu.geometric.") for k in m):
            geo = {
                "T": _number(take("nu.geometric.T", 0.0), "nu.geometric.T"),
                "mean_fr": _number(take("nu.geometric.mean_fr", 0.0), "nu.geometric.mean_fr"),
                "chi": _number(take("nu.geometric.chi", 0.0), "nu.geometric.chi"),
                "n_first": _integer(take("nu.geometric.n_first", 1), "nu.geometric.n_first"),
                "n_last": _integer(take("nu.geometric.n_last", 5), "nu.geometric.n_last"),
            }
            if not (0 < geo["T"] < math.inf and 0 < geo["mean_fr"] < math.inf
                    and math.isfinite(geo["chi"])):
                raise ConfigError("nu.geometric needs positive finite T and mean_fr, and finite chi")
            if geo["n_last"] < geo["n_first"]:
                raise ConfigError(
                    f"nu.geometric.n_last ({geo['n_last']}) is below n_first ({geo['n_first']})"
                )
            # nu_n is monotone in n: the two ends bound every radius of the range
            ends = (geo["n_first"], geo["n_last"])
            with np.errstate(over="ignore"):  # an end that overflows is inf, and rejected
                nus = geometric_sequence(geo["T"], geo["mean_fr"], geo["chi"], ends)
            for n, nu_n in zip(ends, nus):
                _radius(float(nu_n), f"nu.geometric radius at n = {n}")
        sweep_t = None
        if any(k.startswith("sweep.") for k in m):
            sweep_t = (
                _number(take("sweep.t_start", t0), "sweep.t_start"),
                _number(take("sweep.t_stop", t1), "sweep.t_stop"),
                _integer(take("sweep.t_points", 101), "sweep.t_points"),
            )
            a, b, npts = sweep_t
            if not (t0 <= a < b < math.inf and npts >= 2):
                raise ConfigError(
                    "the sweep grid needs t0 <= sweep.t_start < sweep.t_stop, finite, and "
                    f"sweep.t_points >= 2 (got t0 = {t0!r}, t_start = {a!r}, "
                    f"t_stop = {b!r}, t_points = {npts})"
                )
        s_budget = _number(take("classify.s_budget", 2.0e4), "classify.s_budget")
        if not 0 < s_budget < math.inf:
            raise ConfigError(f"classify.s_budget must be positive and finite, got {s_budget!r}")
        if m:
            raise ConfigError(f"unknown config keys: {sorted(m)}")
        return cls(
            field_name=name,
            alpha=alpha,
            x0=x0,
            t0=t0,
            t1=t1,
            seed=seed,
            outputs=outputs,
            options=options,
            r_floor=r_floor,
            reg_kind=reg_kind,
            reg_g0=reg_g0,
            reg_sigma=reg_sigma,
            nu=nu,
            nu_list=nu_list,
            geo=geo,
            sweep_t=sweep_t,
            s_budget=s_budget,
        )

    def to_mapping(self) -> dict:
        m: dict = {"field": self.field_name, "alpha": self.alpha, "x0": list(self.x0)}
        m["t0"] = self.t0
        m["t1"] = self.t1
        m["seed"] = self.seed
        if self.outputs is not None:
            m["outputs"] = self.outputs
        o = self.options
        m["integrator.rtol"] = o.rtol
        m["integrator.atol"] = o.atol
        m["integrator.max_step"] = o.max_step
        m["integrator.r_floor"] = self.r_floor
        if self.reg_kind is not None:
            m["regularization.kind"] = self.reg_kind
        if self.reg_g0 is not None:
            m["regularization.g0"] = list(self.reg_g0)
        if self.reg_sigma is not None:
            m["regularization.sigma"] = self.reg_sigma
        if self.nu is not None:
            m["nu"] = self.nu
        if self.nu_list is not None:
            m["nu.list"] = list(self.nu_list)
        if self.geo is not None:
            m["nu.geometric.T"] = self.geo["T"]
            m["nu.geometric.mean_fr"] = self.geo["mean_fr"]
            m["nu.geometric.chi"] = self.geo["chi"]
            m["nu.geometric.n_first"] = self.geo["n_first"]
            m["nu.geometric.n_last"] = self.geo["n_last"]
        if self.sweep_t is not None:
            m["sweep.t_start"], m["sweep.t_stop"], m["sweep.t_points"] = self.sweep_t
        m["classify.s_budget"] = self.s_budget
        return m

    def emit(self) -> str:
        return emit_config(self.to_mapping())
