"""JSON configuration files: schema, loaders, and hashing.

A configuration is one JSON object.  System specifications use

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
[re, im] pairs.  Real arrays (J, B, energies) are plain numbers.
Subcommand-specific sections (evolve, verify, scaling, xi_grid) ride
in the same object; loaders ignore sections they do not need.  The
configuration hash is over the canonical (sorted-key, compact) JSON
serialization, so semantically identical files hash identically.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import BadConfiguration
from .model import (
    CouplingTerm,
    FormFactor,
    RegisterSpec,
    SystemSpec,
    register_to_system,
)

__all__ = [
    "load_config",
    "config_hash",
    "form_factor_from_config",
    "matrix_from_config",
    "matrix_to_config",
    "system_from_config",
    "register_from_config",
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


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise BadConfiguration(f"missing key {key!r} in {context}")
    return cfg[key]


def _integer(value, context: str) -> int:
    """An integer or integral float (20.0) as an int; any other value,
    20.7 included, raises BadConfiguration instead of being truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise BadConfiguration(f"{context} must be an integer, got {value!r}")


def form_factor_from_config(d: dict, context: str = "form_factor") \
        -> FormFactor:
    """Build a FormFactor from {"p": ..., "m": ..., "scale": ...}."""
    if not isinstance(d, dict):
        raise BadConfiguration(f"{context} must be an object")
    p = _require(d, "p", context)
    m = _integer(_require(d, "m", context), f"{context}.m")
    scale = d.get("scale", 1.0)
    weight = d.get("weight", 1.0)
    try:
        return FormFactor(radial_exponent=float(p), decay_exponent=m,
                          overall_scale=float(scale),
                          angular_weight=float(weight))
    except (TypeError, ValueError) as exc:
        raise BadConfiguration(f"invalid {context}: {exc}") from exc


def matrix_from_config(rows, context: str = "matrix") -> np.ndarray:
    """Nested [re, im] leaves -> complex matrix."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadConfiguration(
            f"{context} must be a nested array of [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise BadConfiguration(
            f"{context} must be a matrix of [re, im] pairs, got shape "
            f"{arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_config(matrix: np.ndarray) -> list:
    """Complex matrix -> nested [re, im] leaves (JSON-serializable)."""
    matrix = np.asarray(matrix, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row]
            for row in matrix]


def system_from_config(cfg: dict) -> SystemSpec:
    """Build a SystemSpec from the top-level configuration object.

    A configuration with a "register" section is lowered through
    model.register_to_system instead; use register_from_config directly
    when the RegisterSpec itself is wanted.
    """
    if "register" in cfg:
        return register_to_system(register_from_config(cfg))
    dim = _integer(_require(cfg, "dim", "configuration"), "dim")
    energies = np.asarray(_require(cfg, "energies", "configuration"),
                          dtype=float)
    beta = float(_require(cfg, "beta", "configuration"))
    couplings = []
    raw = _require(cfg, "couplings", "configuration")
    if not isinstance(raw, list):
        raise BadConfiguration("couplings must be an array")
    for i, entry in enumerate(raw):
        ctx = f"couplings[{i}]"
        strength = float(_require(entry, "strength", ctx))
        matrix = matrix_from_config(_require(entry, "matrix", ctx),
                                    f"{ctx}.matrix")
        ff = form_factor_from_config(_require(entry, "form_factor", ctx),
                                     f"{ctx}.form_factor")
        couplings.append(CouplingTerm(strength=strength, matrix=matrix,
                                      form_factor=ff))
    try:
        return SystemSpec(dim=dim, energies=energies, couplings=couplings,
                          beta=beta)
    except ValueError as exc:
        raise BadConfiguration(str(exc)) from exc


def register_from_config(cfg: dict) -> RegisterSpec:
    """Build a RegisterSpec from the "register" section plus beta."""
    reg = _require(cfg, "register", "configuration")
    if not isinstance(reg, dict):
        raise BadConfiguration("register must be an object")
    n = _integer(_require(reg, "n", "register"), "register.n")
    J = np.asarray(_require(reg, "J", "register"), dtype=float)
    B = np.asarray(_require(reg, "B", "register"), dtype=float)
    beta = float(_require(cfg, "beta", "configuration"))
    g1 = form_factor_from_config(_require(reg, "g1", "register"),
                                 "register.g1")
    g2 = form_factor_from_config(_require(reg, "g2", "register"),
                                 "register.g2")
    try:
        return RegisterSpec(
            n_qubits=n, J=J, B=B,
            lambda1=float(_require(reg, "lambda1", "register")),
            lambda2=float(_require(reg, "lambda2", "register")),
            g1=g1, g2=g2, beta=beta)
    except ValueError as exc:
        raise BadConfiguration(str(exc)) from exc
