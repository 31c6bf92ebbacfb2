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
error (a malformed command line or a failed write included), 2
numerical failure, 3 verification failure, 4 a bug; errors 1-3 go to
standard error with the prefix ``ERROR[code]:``.  Handlers compute, and
``run`` loads and writes: it loads the configuration once and writes
the CSV once.  A handler reads the configuration with a
``resodec.config`` section loader (this module reads no configuration
key) and returns ``(columns, rows, footer)``; verify's adds the report
that ``run`` prints after the CSV.  A malformed value
raises ValidationError in the loader, and a malformed flag in the
parser; any other exception is a bug: ``run`` propagates it, ``main``
prints its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import traceback

import numpy as np

from . import __version__
from .config import (
    config_hash,
    evolve_from_config,
    load_config,
    register_from_config,
    scaling_from_config,
    system_from_config,
    verify_from_config,
    xi_from_config,
)
from .errors import (
    BadConfiguration,
    NumericalError,
    ValidationError,
    VerificationFailure,
)
from .dynamics import resonance_evolution
from .model import DEFAULT_SEED
from .reservoir import xi, xi_lorentzian_check
from .resonances import check_nonoverlap, resonance_energies

__all__ = ["run", "main", "build_parser"]

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


def _write_csv(path: str, cfg: dict, seed: int, columns, rows,
               footer) -> None:
    """Write one CSV, provenance header first, to ``path``."""
    _write(path, [f"# config_hash: {config_hash(cfg)}", f"# seed: {seed}",
                  f"# version: {__version__}", ",".join(columns),
                  *(",".join(_fmt(v) for v in row) for row in rows),
                  *footer])


def _write(path: str, lines) -> None:
    """Write ``lines`` to ``path`` ('-' for standard output).  A failed
    write to either, a full disk or a closed pipe, raises
    BadConfiguration."""
    try:
        with contextlib.nullcontext(sys.stdout) if path == "-" else \
                open(path, "w", encoding="utf-8", newline="") as out:
            # a write per line: unbuffered, one long write to a pipe
            # closed midway reports success for the part it delivered
            for line in lines:
                out.write(line + "\n")
            out.flush()
    except OSError as exc:
        raise BadConfiguration(
            f"cannot write output {path!r}: {exc}") from exc


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
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError("tolerance must be finite and > 0")
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


def _parse_times(text: str) -> tuple:
    """``start:stop:num`` as (start, stop, num); evolve_from_config
    checks the grid."""
    parts = text.split(":")
    try:
        if len(parts) == 3:
            return tuple(map(float, parts))
    except ValueError:
        pass
    raise BadConfiguration(
        f"--times must be start:stop:num with numeric fields, got {text!r}")


# =====================================================================
# Subcommand handlers
# =====================================================================

def _cmd_spectrum(args, cfg):
    spec = system_from_config(cfg)
    data = resonance_energies(spec, tol=args.tol)
    rows = [(r.e, s, eps.real, eps.imag, r.nu, r.gamma, len(r.pairs))
            for r in data for s, eps in enumerate(r.epsilons)]
    footer = []
    if args.check_nonoverlap:
        rep = check_nonoverlap(spec, resonances=data)
        footer = [f"# nonoverlap_{name}: {_fmt(getattr(rep, name))}"
                  for name in ("margin", "min_gap", "max_shift", "passed")]
    return (["e", "s", "Re(epsilon)", "Im(epsilon)", "nu", "gamma_e",
             "group_size"], rows, footer)


def _cmd_rates(args, cfg):
    # numpy.random (the register layer's field draws): only rates and
    # scaling pay for it
    from .register import decoherence_rates
    reports = decoherence_rates(register_from_config(cfg), tol=args.tol)
    rows = [(r.e, r.gamma, r.gamma_conserving, r.gamma_exchange,
             r.gamma_cross, r.e0, r.hamming, len(r.pairs))
            for r in reports]
    return (["e", "gamma", "gamma_conserving", "gamma_exchange",
             "gamma_cross", "e0", "hamming", "group_size"], rows, [])


def _cmd_evolve(args, cfg):
    spec, rho0, times = evolve_from_config(
        cfg, None if args.times is None else _parse_times(args.times))
    if args.elements is not None:
        elements = _parse_elements(args.elements, spec.dim)
    else:
        elements = [(m, n) for m in range(spec.dim)
                    for n in range(spec.dim)]
    traj = resonance_evolution(
        spec, rho0, times, resonances=resonance_energies(spec, args.tol))
    def cells(matrix):
        return [part for m, n in elements
                for part in (matrix[m, n].real, matrix[m, n].imag)]

    columns = ["t"] + [f"{part}_{m}_{n}" for m, n in elements
                       for part in ("re", "im")]
    rows = [[t, *cells(state)] for t, state in zip(traj.times, traj.states)]
    footer = ",".join(["# ergodic_mean", *map(_fmt, cells(traj.ergodic_mean))])
    return columns, rows, [footer]


def _cmd_scaling(args, cfg):
    from .register import scaling_study    # numpy.random, as in rates
    template, n_list = scaling_from_config(cfg)
    table = scaling_study(template, n_list, seed=args.seed,
                          attenuate=args.attenuate, tol=args.tol)
    rows = [(row.n_qubits, row.max_gamma_conserving,
             row.max_gamma_exchange, row.gamma0) for row in table.rows]
    footer = [f"# {name}: {_fmt(getattr(table, name))}" for name in
              ("conserving_exponent", "exchange_exponent", "gamma0_spread")]
    return (["N", "max_gamma_conserving", "max_gamma_exchange", "gamma0"],
            rows, footer)


def _cmd_xi(args, cfg):
    ff, beta, grid = xi_from_config(cfg)
    rows = []
    for eta in grid:
        value = xi(ff, beta, float(eta))
        smoothed = xi_lorentzian_check(ff, beta, float(eta),
                                       LORENTZIAN_EPSILON)
        rows.append((eta, value, smoothed, abs(value - smoothed)))
    return ["eta", "xi", "xi_lorentzian_eps1e-3", "abs_diff"], rows, []


def _cmd_verify(args, cfg):
    # scipy (three compiled modules, no subpackage): only this command
    # pays for it
    from .oracle import verify
    system, vconfig, rho0 = verify_from_config(cfg)
    report = verify(system, vconfig, rho0=rho0)
    rows = [(c.name, c.deviation, c.tolerance,
             "PASS" if c.passed else "FAIL",
             c.detail.replace(",", ";")) for c in report.checks]
    return (["check", "deviation", "tolerance", "status", "detail"], rows,
            [], report)


# =====================================================================
# Parser and dispatch
# =====================================================================

class _Parser(argparse.ArgumentParser):
    """Usage errors raise BadConfiguration, which ``run`` reports like
    any other validation error; the subcommand parsers share the class."""

    def error(self, message):
        raise BadConfiguration(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    common.add_argument("--parallel", type=int, default=None,
                        help="accepted for compatibility and ignored: "
                             "runs are single-threaded (numpy's BLAS "
                             "may still use several threads)")
    # xi forms no Bohr groups and verify keeps the default clustering
    clustered = argparse.ArgumentParser(add_help=False)
    clustered.add_argument("--tol", type=_parse_tol, default=None,
                           help="Bohr-frequency clustering tolerance "
                                "override")

    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    p = sub.add_parser("spectrum", parents=[common, clustered],
                       help="resonance energies per Bohr group")
    p.add_argument("--check-nonoverlap", action="store_true",
                   help="append the resonance-separation margin report")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("rates", parents=[common, clustered],
                       help="register decay rates by channel")
    p.set_defaults(handler=_cmd_rates)

    p = sub.add_parser("evolve", parents=[common, clustered],
                       help="reduced density matrix on a time grid")
    p.add_argument("--elements", default=None,
                   help="matrix elements to emit, e.g. '0,1;1,1' "
                        "(default: all)")
    p.add_argument("--times", default=None,
                   help="time grid start:stop:num (overrides the config)")
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("scaling", parents=[common, clustered],
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
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Execute one CLI invocation and return the exit code."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:   # --help and --version exit 0
            return exc.code
        cfg = load_config(args.config)
        columns, rows, footer, *scorecard = args.handler(args, cfg)
        _write_csv(args.output, cfg, args.seed, columns, rows, footer)
        if scorecard:   # verify's report, kept off a CSV on standard output
            report, = scorecard
            if args.output != "-":
                _write("-", report.lines())
            else:
                for line in report.lines():
                    print(line, file=sys.stderr)
            if not report.passed:
                failed = sum(1 for c in report.checks if not c.passed)
                raise VerificationFailure(
                    f"{failed} of {len(report.checks)} checks failed")
        return 0
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
    """Exit with ``run``'s code; a bug prints its traceback and exits 4."""
    try:
        code = run()
    except Exception:
        traceback.print_exc()
        code = 4
    try:
        sys.stdout.flush()
    except OSError:
        # run has reported the failed write; what stays buffered goes
        # nowhere, so the interpreter's own flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
