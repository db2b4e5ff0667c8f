"""Experiment configuration: flat key=value files mirrored by CLI flags.

Config files hold one key=value pair per line (# starts a comment); keys use
the flag spelling with underscores, subdomains as "RxC".  CLI flags override
file values, which override the defaults below.  Both front ends read their
keys and value types off the ExperimentConfig fields, so a new field needs no
other edit.
"""

from dataclasses import dataclass, fields
import math
import sys

from ..grid import Grid
from ..krylov import KrylovConfig
from ..newton import ContinuationSchedule, NewtonConfig

METHODS = ("newton", "newton-eps", "newton-ras", "newton-ras-eps",
           "raspen", "raspen-eps")
LINEAR_SOLVERS = ("auto", "direct", "gmres")
# machine epsilon: a residual test cannot rely on reaching a smaller tolerance
MIN_TOL = sys.float_info.epsilon


class ConfigError(ValueError):
    """Invalid experiment configuration or config file."""


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "newton-eps"
    n: int = 64
    s1: int = 1
    s2: int = 1
    overlap: int = 2
    eps0: float = 1.0
    gamma: float = 0.2
    eps_min: float = 1e-10
    tol: float = 1e-10
    sigma: float = 1.1
    inner_tol: float = 1e-8
    kappa: float = 0.1
    nu: float = 1e-6
    mu: float = 1.0
    k_tilde: int = 5
    threads: int = 1
    linear_solver: str = "auto"
    gmres_tol: float = 1e-8
    max_outer: int = 200

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; "
                              f"choose from {', '.join(METHODS)}")
        if self.linear_solver not in LINEAR_SOLVERS:
            raise ConfigError(f"unknown linear solver {self.linear_solver!r}")
        # ahead of the solver objects: a plain method's schedule never sees
        # eps0, and their tolerance messages name their own fields (rel_tol)
        if not self.eps0 >= self.eps_min > 0:
            raise ConfigError("need eps0 >= eps_min > 0")
        if self.tol <= 0 or self.inner_tol <= 0 or self.gmres_tol <= 0:
            raise ConfigError("tolerances must be positive")
        try:  # the grid and solver objects own the n, gamma, sigma and max_outer rules
            Grid(self.n)
            solver_settings(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.s1 < 1 or self.s2 < 1:
            raise ConfigError("subdomain counts must be at least 1")
        if self.overlap < 0:
            raise ConfigError("overlap must be nonnegative")
        if self.tol < MIN_TOL or self.inner_tol < MIN_TOL:
            raise ConfigError(f"tol and inner_tol must be at least machine "
                              f"epsilon {MIN_TOL:.3g}")
        if self.nu <= 0 or self.mu <= 0:
            raise ConfigError("nu and mu must be positive")
        if self.threads < 0:
            raise ConfigError("threads must be nonnegative")
        if (self.uses_ras or self.is_raspen) and self.linear_solver == "direct":
            raise ConfigError(f"method {self.method} solves with GMRES; "
                              "a direct linear solver is incompatible")

    @property
    def uses_ras(self):
        return self.method in ("newton-ras", "newton-ras-eps")

    @property
    def is_raspen(self):
        return self.method in ("raspen", "raspen-eps")

    @property
    def uses_continuation(self):
        return self.method.endswith("-eps")

    @property
    def subdomains(self):
        return f"{self.s1}x{self.s2}"


def solver_settings(cfg):
    """A run's (ContinuationSchedule, NewtonConfig, KrylovConfig): eps0 ->
    eps_min with continuation, else eps_min; the GMRES budget is per method."""
    eps0 = cfg.eps0 if cfg.uses_continuation else cfg.eps_min
    max_iters = 2000 if cfg.uses_ras else 1000 if cfg.is_raspen else 5000
    return (ContinuationSchedule(eps0, cfg.gamma, cfg.eps_min),
            NewtonConfig(tol=cfg.tol, max_outer=cfg.max_outer, sigma=cfg.sigma),
            KrylovConfig(rel_tol=cfg.gmres_tol, max_iters=max_iters))


# the flat spelling shared by config files and CLI flags: every field under
# its own name, except s1 and s2, which are written together as subdomains
FLAT_KEYS = tuple("subdomains" if f.name == "s1" else f.name
                  for f in fields(ExperimentConfig) if f.name != "s2")
_FIELD_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def parse_subdomains(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"subdomains must look like 2x2, got {text!r}")
    try:
        s1, s2 = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"subdomains must look like 2x2, got {text!r}") from exc
    return s1, s2


def parse_flat(key, text):
    """Field values of one flat key=value pair, as a dict."""
    if key not in FLAT_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    if key == "subdomains":
        s1, s2 = parse_subdomains(text)
        return {"s1": s1, "s2": s2}
    try:
        return {key: _FIELD_TYPES[key](text)}
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def load_config_file(path):
    """Parse a key=value config file into a field dict (no validation yet)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values.update(parse_flat(key, value))
    return values


def build_config(file_values=None, overrides=None):
    """Defaults, then config file values, then CLI overrides; validates."""
    merged = {}
    merged.update(file_values or {})
    merged.update(overrides or {})
    unknown = set(merged) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**merged)
