"""JSON configuration files: schema, loaders, and hashing.

This module is the only reader of configuration files.  A
configuration is one JSON object.  System specifications use

    {
      "dim": 2,
      "energies": [0.0, 1.0],
      "couplings": [
        {"strength": 0.01,
         "matrix": [[[0.2, 0.0], [0.7, 0.0]],
                    [[0.7, 0.0], [-0.4, 0.0]]],
         "form_factor": {"p": -0.5, "m": 1, "scale": 1.0}}
      ],
      "beta": 1.0
    }

and register specifications use

    {
      "register": {"n": 4, "J": [[...]], "B": [...],
                   "lambda1": 0.01, "lambda2": 0.01,
                   "g1": {"p": -0.5, "m": 1, "scale": 1.0},
                   "g2": {"p": 0.5, "m": 1, "scale": 1.0}},
      "beta": 0.5
    }

Complex matrices are nested row-major arrays whose leaves are
[re, im] pairs.  Real arrays (J, B, energies) are plain numbers.  The
subcommand sections (evolve, verify, scaling, xi_grid) ride in the
same object; each section has a loader, which ignores the others.
Below the top level, a key that the loader does not read raises
BadConfiguration.  Every value passes one checked conversion per type:
a number must be a finite JSON number (a string, boolean or null
raises BadConfiguration), an integer integral, an array rectangular.
The number and array conversions are model's, which the value types
call too.  The configuration hash is over the canonical (sorted-key,
compact) JSON serialization.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .errors import BadConfiguration
from .model import (
    CouplingTerm,
    DensityMatrix,
    FormFactor,
    RegisterSpec,
    SystemSpec,
    _integer,
    _real,
    _reals,
    register_to_system,
)

__all__ = [
    "load_config",
    "config_hash",
    "form_factor_from_config",
    "matrix_from_config",
    "system_from_config",
    "register_from_config",
    "evolve_from_config",
    "scaling_from_config",
    "xi_from_config",
    "verify_from_config",
]


def load_config(path) -> dict:
    """Parse a JSON configuration file into a plain dict."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise BadConfiguration(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadConfiguration(
            f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BadConfiguration("configuration must be a JSON object")
    return data


def config_hash(cfg: dict) -> str:
    """Stable short hash of the canonical serialization."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _require(cfg, key: str, context: str = "configuration"):
    """cfg[key]; a cfg that is not an object, or lacks the key, raises
    BadConfiguration."""
    if not isinstance(cfg, dict):
        raise BadConfiguration(f"{context} must be an object")
    if key not in cfg:
        raise BadConfiguration(f"missing key {key!r} in {context}")
    return cfg[key]


def _known(section, keys, context: str):
    """section itself; a section that is not an object, or that holds a
    key outside ``keys``, raises BadConfiguration."""
    if not isinstance(section, dict):
        raise BadConfiguration(f"{context} must be an object")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise BadConfiguration(f"unknown key(s) {unknown} in {context}")
    return section


def _read(section, key: str, convert, context: str = ""):
    """convert(section[key]), naming the value context.key (key alone
    at the top level)."""
    return convert(_require(section, key, context or "configuration"),
                   f"{context}.{key}" if context else key)


def _tuple(value, context: str) -> tuple:
    return tuple(_reals(value, context, ndim=1).tolist())


def _grid(section, context: str) -> np.ndarray:
    """The grid of a {"start", "stop", "num"} object."""
    _known(section, ("start", "stop", "num"), context)
    start = _read(section, "start", _real, context)
    stop = _read(section, "stop", _real, context)
    num = _read(section, "num", _integer, context)
    if num < 1:
        raise BadConfiguration(f"{context}.num must be >= 1, got {num}")
    return np.linspace(start, stop, num)


def form_factor_from_config(d: dict, context: str = "form_factor") \
        -> FormFactor:
    """Build a FormFactor from {"p": ..., "m": ..., "scale": 1.0}."""
    _known(d, ("p", "m", "scale"), context)
    return FormFactor(
        radial_exponent=_read(d, "p", _real, context),
        decay_exponent=_read(d, "m", _integer, context),
        overall_scale=_real(d.get("scale", 1.0), f"{context}.scale"))


def matrix_from_config(rows, context: str = "matrix") -> np.ndarray:
    """Nested [re, im] leaves -> complex matrix."""
    arr = _reals(rows, context)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise BadConfiguration(
            f"{context} must be a matrix of [re, im] pairs, got shape "
            f"{arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _initial_state(section, context: str, dim: int) -> DensityMatrix:
    rho0 = DensityMatrix.from_array(
        _read(section, "initial_state", matrix_from_config, context))
    if rho0.dim != dim:
        raise BadConfiguration(
            f"{context}.initial_state is {rho0.dim}x{rho0.dim}, but the "
            f"system has dimension {dim}")
    return rho0


# =====================================================================
# Section loaders
# =====================================================================

def system_from_config(cfg: dict) -> SystemSpec:
    """Build a SystemSpec from the top-level configuration object.

    A configuration with a "register" section is lowered through
    model.register_to_system instead; use register_from_config directly
    when the RegisterSpec itself is wanted.
    """
    if "register" in cfg:
        return register_to_system(register_from_config(cfg))
    dim = _read(cfg, "dim", _integer)
    energies = _read(cfg, "energies", _reals)
    beta = _read(cfg, "beta", _real)
    raw = _require(cfg, "couplings")
    if not isinstance(raw, list):
        raise BadConfiguration("couplings must be an array")
    couplings = []
    for i, entry in enumerate(raw):
        ctx = f"couplings[{i}]"
        _known(entry, ("strength", "matrix", "form_factor"), ctx)
        couplings.append(CouplingTerm(
            strength=_read(entry, "strength", _real, ctx),
            matrix=_read(entry, "matrix", matrix_from_config, ctx),
            form_factor=_read(entry, "form_factor", form_factor_from_config,
                              ctx)))
    return SystemSpec(dim=dim, energies=energies, couplings=couplings,
                      beta=beta)


def register_from_config(cfg: dict) -> RegisterSpec:
    """Build a RegisterSpec from the "register" section plus beta."""
    reg = _known(_require(cfg, "register"),
                 ("n", "J", "B", "lambda1", "lambda2", "g1", "g2"),
                 "register")
    return RegisterSpec(
        n_qubits=_read(reg, "n", _integer, "register"),
        J=_read(reg, "J", _reals, "register"),
        B=_read(reg, "B", _reals, "register"),
        lambda1=_read(reg, "lambda1", _real, "register"),
        lambda2=_read(reg, "lambda2", _real, "register"),
        g1=_read(reg, "g1", form_factor_from_config, "register"),
        g2=_read(reg, "g2", form_factor_from_config, "register"),
        beta=_read(cfg, "beta", _real))


def evolve_from_config(cfg: dict, times: tuple | None = None) -> tuple:
    """(SystemSpec, initial DensityMatrix, time grid) for ``evolve``.

    The "evolve" section holds "initial_state" and a "times" grid; a
    (start, stop, num) ``times`` overrides that grid, which may then be
    absent.  A grid that is present is checked either way.
    """
    spec = system_from_config(cfg)
    section = _known(_require(cfg, "evolve"), ("initial_state", "times"),
                     "evolve")
    rho0 = _initial_state(section, "evolve", spec.dim)
    if times is None or "times" in section:
        grid = _read(section, "times", _grid, "evolve")
    if times is not None:
        grid = _grid(dict(zip(("start", "stop", "num"), times)), "--times")
    return spec, rho0, grid


def scaling_from_config(cfg: dict) -> tuple:
    """(RegisterTemplate, register sizes) from the "scaling" section
    plus beta; without "b_interval", RegisterTemplate's default holds."""
    from .register import RegisterTemplate   # numpy.random: scaling pays
    section = _known(_require(cfg, "scaling"),
                     ("n_list", "lambda1", "lambda2", "g1", "g2",
                      "b_interval"), "scaling")
    n_list = _require(section, "n_list", "scaling")
    if not isinstance(n_list, list):
        raise BadConfiguration("scaling.n_list must be an array")
    optional = {"b_interval": _read(section, "b_interval", _tuple,
                                    "scaling")} \
        if "b_interval" in section else {}
    template = RegisterTemplate(
        lambda1=_read(section, "lambda1", _real, "scaling"),
        lambda2=_read(section, "lambda2", _real, "scaling"),
        g1=_read(section, "g1", form_factor_from_config, "scaling"),
        g2=_read(section, "g2", form_factor_from_config, "scaling"),
        beta=_read(cfg, "beta", _real), **optional)
    return template, [_integer(n, "scaling.n_list") for n in n_list]


def xi_from_config(cfg: dict) -> tuple:
    """(FormFactor, beta, frequency grid) for ``xi``."""
    return (_read(cfg, "form_factor", form_factor_from_config),
            _read(cfg, "beta", _real), _read(cfg, "xi_grid", _grid))


def verify_from_config(cfg: dict) -> tuple:
    """(SystemSpec, VerifyConfig, initial DensityMatrix or None) for
    ``verify``.

    The "verify" section is optional.  Its keys are VerifyConfig's
    fields, each read as the type of its default, plus
    "initial_state"; any other key raises BadConfiguration.
    """
    from .oracle import VerifyConfig    # scipy: only verify pays
    system = system_from_config(cfg)
    fields = dataclasses.fields(VerifyConfig)
    section = _known(cfg.get("verify", {}),
                     [f.name for f in fields] + ["initial_state"], "verify")
    readers = {int: _integer, float: _real, tuple: _tuple}
    kwargs = {f.name: _read(section, f.name, readers[type(f.default)],
                            "verify")
              for f in fields if f.name in section}
    vconfig = VerifyConfig(**kwargs)
    rho0 = None
    if "initial_state" in section:
        rho0 = _initial_state(section, "verify", system.dim)
    return system, vconfig, rho0
