"""Command-line front end.

Subcommands
-----------
spectrum   resonance energies and decay rates per Bohr group
rates      register rates attributed to the two coupling channels
evolve     reduced-density-matrix elements on a time grid
scaling    rate scaling with register size
xi         thermal spectral function on a frequency grid
verify     truncated-reservoir oracle versus resonance theory

Every CSV starts with a provenance comment header (configuration
hash, seed, package version — never timestamps), so identical inputs
produce byte-identical output.  Exit codes: 0 success, 1 validation
error, 2 numerical failure, 3 verification failure; errors go to
standard error with the prefix ``ERROR[code]:``.  A malformed
configuration value is a validation error; any other exception is a
bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import sys

import numpy as np

from . import __version__
from .config import (
    config_hash,
    form_factor_from_config,
    load_config,
    matrix_from_config,
    register_from_config,
    system_from_config,
    _require,
)
from .errors import (
    BadConfiguration,
    NumericalError,
    ValidationError,
    VerificationFailure,
)
from .model import DensityMatrix
from .dynamics import resonance_evolution
from .oracle import VerifyConfig, verify
from .register import RegisterTemplate, decoherence_rates, scaling_study
from .reservoir import xi, xi_lorentzian_check
from .resonances import check_nonoverlap, resonance_energies

__all__ = ["run", "main", "build_parser"]

log = logging.getLogger("resodec")

DEFAULT_SEED = 0xD1CE
LORENTZIAN_EPSILON = 1e-3


# =====================================================================
# Output formatting
# =====================================================================

def _fmt(value) -> str:
    """Deterministic cell formatting: integers verbatim, floats in
    fixed-width scientific notation."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12e")


@contextlib.contextmanager
def _parsing():
    """Report a malformed configuration value (a TypeError, ValueError or
    KeyError while the configuration is read) as BadConfiguration."""
    try:
        yield
    except (TypeError, ValueError, KeyError) as exc:
        raise BadConfiguration(f"invalid configuration: {exc}") from exc


@contextlib.contextmanager
def _open_output(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                yield handle
        except OSError as exc:
            raise BadConfiguration(
                f"cannot write output {path!r}: {exc}") from exc


def _write_csv(stream, cfg: dict, seed: int, columns, rows,
               footer_lines=()):
    stream.write(f"# config_hash: {config_hash(cfg)}\n")
    stream.write(f"# seed: {seed}\n")
    stream.write(f"# version: {__version__}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")
    for line in footer_lines:
        stream.write(line + "\n")


# =====================================================================
# Argument parsing helpers
# =====================================================================

def _parse_seed(text: str) -> int:
    try:
        seed = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer, got {text!r}")
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tolerance must be a number, got {text!r}")
    if not tol > 0.0:
        raise argparse.ArgumentTypeError("tolerance must be > 0")
    return tol


def _parse_elements(text: str, dim: int) -> list:
    """Parse the ``m,n;m,n;...`` element-selection syntax."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise BadConfiguration(
                f"element selection {chunk!r} is not of the form m,n")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadConfiguration(
                f"element selection {chunk!r} has non-integer indices")
        if not (0 <= m < dim and 0 <= n < dim):
            raise BadConfiguration(
                f"element ({m},{n}) outside a dimension-{dim} matrix")
        pairs.append((m, n))
    if not pairs:
        raise BadConfiguration("empty element selection")
    return pairs


def _grid_from_config(section: dict, context: str) -> np.ndarray:
    start = float(_require(section, "start", context))
    stop = float(_require(section, "stop", context))
    num = int(_require(section, "num", context))
    if not (np.isfinite(start) and np.isfinite(stop)) or num < 1:
        raise BadConfiguration(
            f"{context} must have finite start/stop and num >= 1")
    return np.linspace(start, stop, num)


def _parse_times(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise BadConfiguration(
            f"--times must be start:stop:num, got {text!r}")
    try:
        return _grid_from_config(
            {"start": float(parts[0]), "stop": float(parts[1]),
             "num": int(parts[2])}, "--times")
    except ValueError:
        raise BadConfiguration(
            f"--times must be start:stop:num with numeric fields, "
            f"got {text!r}")


def _initial_state(section: dict, context: str, dim: int) -> DensityMatrix:
    rho0 = DensityMatrix.from_array(matrix_from_config(
        _require(section, "initial_state", context),
        f"{context}.initial_state"))
    if rho0.dim != dim:
        raise BadConfiguration(
            f"{context}.initial_state is {rho0.dim}x{rho0.dim}, but the "
            f"system has dimension {dim}")
    return rho0


# =====================================================================
# Subcommand handlers
# =====================================================================

def _cmd_spectrum(args) -> int:
    with _parsing():
        cfg = load_config(args.config)
        spec = system_from_config(cfg)
    data = resonance_energies(spec, tol=args.tol)
    rows = []
    for r in data:
        for s, eps in enumerate(r.epsilons):
            rows.append((r.e, s, eps.real, eps.imag, r.nu, r.gamma,
                         len(r.pairs)))
    footer = []
    if args.check_nonoverlap:
        rep = check_nonoverlap(spec, tol=args.tol, resonances=data)
        footer = [
            f"# nonoverlap_margin: {_fmt(rep.margin)}",
            f"# nonoverlap_min_gap: {_fmt(rep.min_gap)}",
            f"# nonoverlap_max_shift: {_fmt(rep.max_shift)}",
            f"# nonoverlap_passed: {_fmt(rep.passed)}",
        ]
    with _open_output(args.output) as out:
        _write_csv(out, cfg, args.seed,
                   ["e", "s", "Re(epsilon)", "Im(epsilon)", "nu",
                    "gamma_e", "group_size"], rows, footer)
    log.info("spectrum: %d resonance rows", len(rows))
    return 0


def _cmd_rates(args) -> int:
    with _parsing():
        cfg = load_config(args.config)
        reg = register_from_config(cfg)
    reports = decoherence_rates(reg, tol=args.tol)
    rows = [(r.e, r.gamma, r.gamma_conserving, r.gamma_exchange,
             r.gamma_cross, r.e0, r.hamming, len(r.group_pairs))
            for r in reports]
    with _open_output(args.output) as out:
        _write_csv(out, cfg, args.seed,
                   ["e", "gamma", "gamma_conserving", "gamma_exchange",
                    "gamma_cross", "e0", "hamming", "group_size"], rows)
    log.info("rates: %d Bohr groups", len(rows))
    return 0


def _cmd_evolve(args) -> int:
    with _parsing():
        cfg = load_config(args.config)
        spec = system_from_config(cfg)
        section = cfg.get("evolve")
        if not isinstance(section, dict):
            raise BadConfiguration(
                "missing 'evolve' section in configuration")
        rho0 = _initial_state(section, "evolve", spec.dim)
        if args.times is not None:
            times = _parse_times(args.times)
        else:
            times = _grid_from_config(
                _require(section, "times", "evolve"), "evolve.times")
    if args.elements is not None:
        elements = _parse_elements(args.elements, spec.dim)
    else:
        elements = [(m, n) for m in range(spec.dim)
                    for n in range(spec.dim)]
    traj = resonance_evolution(spec, rho0, times, tol=args.tol)
    columns = ["t"]
    for m, n in elements:
        columns += [f"re_{m}_{n}", f"im_{m}_{n}"]
    rows = []
    for k, t in enumerate(traj.times):
        row = [t]
        for m, n in elements:
            v = traj.states[k, m, n]
            row += [v.real, v.imag]
        rows.append(row)
    footer_cells = ["# ergodic_mean"]
    for m, n in elements:
        v = traj.ergodic_mean[m, n]
        footer_cells += [_fmt(v.real), _fmt(v.imag)]
    with _open_output(args.output) as out:
        _write_csv(out, cfg, args.seed, columns, rows,
                   [",".join(footer_cells)])
    log.info("evolve: %d times, %d elements, max trace drift %.3e",
             len(times), len(elements), traj.max_trace_deviation)
    return 0


def _cmd_scaling(args) -> int:
    with _parsing():
        cfg = load_config(args.config)
        section = cfg.get("scaling")
        if not isinstance(section, dict):
            raise BadConfiguration(
                "missing 'scaling' section in configuration")
        n_list = _require(section, "n_list", "scaling")
        if not isinstance(n_list, list) or not n_list:
            raise BadConfiguration("scaling.n_list must be a nonempty array")
        n_list = [int(n) for n in n_list]
        template = RegisterTemplate(
            lambda1=float(_require(section, "lambda1", "scaling")),
            lambda2=float(_require(section, "lambda2", "scaling")),
            g1=form_factor_from_config(
                _require(section, "g1", "scaling"), "scaling.g1"),
            g2=form_factor_from_config(
                _require(section, "g2", "scaling"), "scaling.g2"),
            beta=float(_require(cfg, "beta", "configuration")),
            b_interval=tuple(section.get("b_interval", (0.45, 0.55))))
    table = scaling_study(template, n_list, seed=args.seed,
                          attenuate=args.attenuate, tol=args.tol)
    rows = [(row.n_qubits, row.max_gamma_conserving,
             row.max_gamma_exchange, row.gamma0) for row in table.rows]
    footer = [
        f"# conserving_exponent: {_fmt(table.conserving_exponent)}",
        f"# exchange_exponent: {_fmt(table.exchange_exponent)}",
        f"# gamma0_spread: {_fmt(table.gamma0_spread)}",
    ]
    with _open_output(args.output) as out:
        _write_csv(out, cfg, args.seed,
                   ["N", "max_gamma_conserving", "max_gamma_exchange",
                    "gamma0"], rows, footer)
    log.info("scaling: sizes %s", [row.n_qubits for row in table.rows])
    return 0


def _cmd_xi(args) -> int:
    with _parsing():
        cfg = load_config(args.config)
        ff = form_factor_from_config(
            _require(cfg, "form_factor", "configuration"), "form_factor")
        beta = float(_require(cfg, "beta", "configuration"))
        grid = _grid_from_config(
            _require(cfg, "xi_grid", "configuration"), "xi_grid")
    rows = []
    for eta in grid:
        value = xi(ff, beta, float(eta))
        smoothed = xi_lorentzian_check(ff, beta, float(eta),
                                       LORENTZIAN_EPSILON)
        rows.append((eta, value, smoothed, abs(value - smoothed)))
    with _open_output(args.output) as out:
        _write_csv(out, cfg, args.seed,
                   ["eta", "xi", "xi_lorentzian_eps1e-3", "abs_diff"],
                   rows)
    log.info("xi: %d grid points", len(rows))
    return 0


def _cmd_verify(args) -> int:
    with _parsing():
        cfg = load_config(args.config)
        system = system_from_config(cfg)
        section = cfg.get("verify", {})
        if not isinstance(section, dict):
            raise BadConfiguration("'verify' section must be an object")
        # each field is coerced to the type of its default (int, float,
        # str; VerifyConfig turns the lambdas into floats itself)
        kwargs = {f.name: type(f.default)(section[f.name])
                  for f in dataclasses.fields(VerifyConfig)
                  if f.name in section}
        unknown = sorted(set(section) - set(kwargs) - {"initial_state"})
        if unknown:
            raise BadConfiguration(
                f"unknown key(s) {unknown} in the 'verify' section")
        if args.rate_tolerance is not None:
            kwargs["rate_tolerance"] = args.rate_tolerance
        vconfig = VerifyConfig(**kwargs)
        if system.overall_coupling == 0.0 and any(vconfig.lambdas):
            raise BadConfiguration(
                "verify rescales the coupling to each lambda, but every "
                "coupling strength is zero")
        rho0 = None
        if "initial_state" in section:
            rho0 = _initial_state(section, "verify", system.dim)
    report = verify(system, vconfig, rho0=rho0)

    rows = [(c.name, c.deviation, c.tolerance,
             "PASS" if c.passed else "FAIL",
             c.detail.replace(",", ";")) for c in report.checks]
    with _open_output(args.output) as out:
        _write_csv(out, cfg, args.seed,
                   ["check", "deviation", "tolerance", "status", "detail"],
                   rows)
    # Human-readable report; kept off the CSV stream when both share
    # standard output.
    report_stream = sys.stderr if args.output in (None, "-") else sys.stdout
    for line in report.lines():
        print(line, file=report_stream)
    if not report.passed:
        failed = sum(1 for c in report.checks if not c.passed)
        raise VerificationFailure(
            f"{failed} of {len(report.checks)} checks failed")
    return 0


# =====================================================================
# Parser and dispatch
# =====================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resodec",
        description="Resonance theory of decoherence: spectra, rates, "
                    "reduced dynamics, and oracle verification.")
    parser.add_argument("--version", action="version",
                        version=f"resodec {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the JSON configuration file")
    common.add_argument("--output", "-o", default="-",
                        help="output CSV path ('-' for standard output)")
    common.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                        help="64-bit unsigned seed (default 0x%X)"
                             % DEFAULT_SEED)
    common.add_argument("--tol", type=_parse_tol, default=None,
                        help="Bohr-frequency clustering tolerance override")
    common.add_argument("--parallel", type=int, default=None,
                        help="accepted for compatibility and ignored: "
                             "runs are single-threaded (numpy's BLAS "
                             "may still use several threads)")
    common.add_argument("--verbose", "-v", action="store_true",
                        help="log progress to standard error")

    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("spectrum", parents=[common],
                       help="resonance energies per Bohr group")
    p.add_argument("--check-nonoverlap", action="store_true",
                   help="append the resonance-separation margin report")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("rates", parents=[common],
                       help="register decay rates by channel")
    p.set_defaults(handler=_cmd_rates)

    p = sub.add_parser("evolve", parents=[common],
                       help="reduced density matrix on a time grid")
    p.add_argument("--elements", default=None,
                   help="matrix elements to emit, e.g. '0,1;1,1' "
                        "(default: all)")
    p.add_argument("--times", default=None,
                   help="time grid start:stop:num (overrides the config)")
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("scaling", parents=[common],
                       help="decay-rate scaling with register size")
    p.add_argument("--attenuate", action="store_true",
                   help="scale couplings down with register size "
                        "(lambda1/N, lambda2/sqrt(N))")
    p.set_defaults(handler=_cmd_scaling)

    p = sub.add_parser("xi", parents=[common],
                       help="thermal spectral function on a grid")
    p.set_defaults(handler=_cmd_xi)

    p = sub.add_parser("verify", parents=[common],
                       help="oracle-versus-theory verification suite")
    p.add_argument("--rate-tolerance", type=float, default=None,
                   help="relative decay-rate tolerance override")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Execute one CLI invocation and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract maps every
        # validation problem, unknown subcommands included, to 1.
        return 0 if not exc.code else 1
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        print("ERROR[1]: a subcommand is required", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"ERROR[1]: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"ERROR[2]: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"ERROR[3]: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
