"""The four benchmark workloads: inputs drawn from the seed, the timed
operations, and the output check of every operation.

register-sweep
    ``scaling_study`` over the sizes N = 2..6 of
    ``demos/configs/scaling.json`` (acceptance-test template, fields
    drawn from the seed) and ``decoherence_rates`` at N = 5.  Few, large
    Bohr groups: level-shift assembly inside ``resonance_energies``
    dominates and quadratures are a small share.  N = 7 and 8 are left
    out so that one pass takes a few seconds and a run holds several.
generic-spectrum
    A non-degenerate 20-level system whose energies form a scaled
    Sidon set (all level differences distinct, so every Bohr group but
    e = 0 has size 1 and neighbouring Bohr frequencies are at least one
    scale unit apart), with dense random Hermitian couplings on two
    channels with different form factors.  380 distinct gaps per
    channel, so reservoir quadratures are a visible share; many size-1
    groups leave batched diagonalization nothing to batch.
oracle-sector
    ``verify`` on ``demos/configs/verify_qubit.json`` (200 modes) from a
    seed-drawn pure state, plus ``exact_evolve`` and the resonance
    reconstruction of ``demos/configs/three_level.json`` at 80 modes
    from its shipped initial state.  The sector propagation dominates
    time and memory.
cli-cold
    Each subcommand on its ``demos/configs`` file as a fresh
    ``python -m resodec`` process, one at a time, in a seed-drawn order.
    Import dominates.  The CSV of every command must be byte-identical
    to the one recorded in ``cli_golden.json``.

Inputs depend on the seed only through values (fields, energies,
couplings, initial states, command order), never through sizes, so
run time does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from resodec.config import (
    form_factor_from_config,
    load_config,
    matrix_from_config,
    system_from_config,
)
from resodec.dynamics import resonance_evolution
from resodec.model import build_system
from resodec.oracle import VerifyConfig, discretize_bath, exact_evolve, verify
from resodec.register import RegisterTemplate, decoherence_rates, \
    scaling_study
from resodec.resonances import check_nonoverlap, resonance_energies

HERE = Path(__file__).resolve().parent

NAMES = ("register-sweep", "generic-spectrum", "oracle-sector", "cli-cold")

#: (operation name, subcommand, arguments) of the cli-cold workload
CLI_COMMANDS = (
    ("spectrum:single_qubit", "spectrum",
     ["--config", "demos/configs/single_qubit.json"]),
    ("spectrum:three_level", "spectrum",
     ["--config", "demos/configs/three_level.json", "--check-nonoverlap"]),
    ("rates:reg4", "rates", ["--config", "demos/configs/reg4.json"]),
    ("evolve:three_level", "evolve",
     ["--config", "demos/configs/three_level.json"]),
    ("scaling:scaling", "scaling", ["--config", "demos/configs/scaling.json"]),
    ("xi:xi_grid", "xi", ["--config", "demos/configs/xi_grid.json"]),
)

CONFIGS = {
    "register-sweep": {"scaling": "demos/configs/scaling.json"},
    "generic-spectrum": {"generic": "perfbench/configs/generic_spectrum.json"},
    "oracle-sector": {"verify": "demos/configs/verify_qubit.json",
                      "three_level": "demos/configs/three_level.json"},
    "cli-cold": {name: args[1] for name, _, args in CLI_COMMANDS},
}

#: Predicted layer shares of a traced pass, as (metric, low, high, why).
#: Measured shares are printed beside them; a share outside its range
#: is reported, not counted as a failure.
PREDICTIONS = {
    "register-sweep": [
        ("resonances.energies_s", 0.86, 1.0,
         "bulk of the sweep (~86% is level-shift assembly)"),
        ("reservoir.quad_s", 0.0, 0.02, "quadratures under 2%"),
    ],
    "generic-spectrum": [
        ("reservoir.quad_s", 0.25, 0.40,
         "PV quadratures over 380 distinct gaps per channel"),
    ],
    "oracle-sector": [
        ("oracle.exact_evolve_s", 0.90, 1.0, "sector propagation"),
        ("resonances.energies_s", 0.0, 0.01, "resonances under 1%"),
    ],
    "cli-cold": [
        ("import_s", 0.5, 1.0, "import is most of each command"),
    ],
}

#: acceptance thresholds of the register scaling sweep
CONSERVING_EXPONENT, CONSERVING_TOL = 2.0, 0.1
EXCHANGE_EXPONENT, EXCHANGE_TOL = 1.0, 0.15
GAMMA0_SPREAD_MAX = 0.05
#: resonance separation below which the expansion is flagged
MARGIN_WARN = 10.0


@dataclass
class Op:
    """One timed operation.  ``run`` takes the span file a subprocess
    operation should write in a traced pass (None when untraced);
    ``check`` returns (passed, detail) for the operation's output."""

    name: str
    run: Callable[[str | None], object]
    check: Callable[[object], tuple]
    warn: Callable[[object], list] | None = None


@dataclass
class Workload:
    name: str
    ops: list
    in_process: bool = True


def load_configs(name: str, root: Path) -> dict:
    return {key: load_config(root / rel) for key, rel in CONFIGS[name].items()}


def build(name: str, cfgs: dict, seed: int, tiny: bool, root: Path) \
        -> Workload:
    builders = {
        "register-sweep": _register_sweep,
        "generic-spectrum": _generic_spectrum,
        "oracle-sector": _oracle_sector,
        "cli-cold": _cli_cold,
    }
    return builders[name](cfgs, seed, tiny, root)


# =====================================================================
# shared process settings
# =====================================================================

#: results, span files and child output, inside the checkout
OUT_DIR = ".perfbench_out"


def child_env(root: Path) -> dict:
    """Environment of every child: the parent's thread caps, the
    checkout's own sources first on the import path, and bytecode
    caches kept (whatever the caller's environment says) in a tree
    inside the checkout, so imports are timed with warm caches."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(root / OUT_DIR / "pycache")
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# =====================================================================
# register-sweep
# =====================================================================

def _register_sweep(cfgs, seed, tiny, root) -> Workload:
    cfg = cfgs["scaling"]
    section = cfg["scaling"]
    template = RegisterTemplate(
        lambda1=float(section["lambda1"]), lambda2=float(section["lambda2"]),
        g1=form_factor_from_config(section["g1"]),
        g2=form_factor_from_config(section["g2"]),
        beta=float(cfg["beta"]), b_interval=tuple(section["b_interval"]))
    sizes = [2, 3, 4] if tiny else [int(n) for n in section["n_list"]]
    rates_n = 3 if tiny else 5
    reg = template.realize(rates_n, seed)
    ops = [
        Op("scaling_study",
           lambda _: scaling_study(template, sizes, seed=seed, parallel=1),
           _check_scaling),
        Op(f"decoherence_rates:N={rates_n}",
           lambda _: decoherence_rates(reg, parallel=1),
           lambda reports: _check_rates(reports, rates_n)),
    ]
    return Workload("register-sweep", ops)


def _check_scaling(table) -> tuple:
    ok = (abs(table.conserving_exponent - CONSERVING_EXPONENT)
          <= CONSERVING_TOL
          and abs(table.exchange_exponent - EXCHANGE_EXPONENT)
          <= EXCHANGE_TOL
          and table.gamma0_spread <= GAMMA0_SPREAD_MAX)
    return ok, (f"exponents {table.conserving_exponent:.4f}/"
                f"{table.exchange_exponent:.4f}, gamma0 spread "
                f"{table.gamma0_spread:.4f}")


def _check_rates(reports, n) -> tuple:
    """3^N Bohr groups for a generic field, no negative rate, and the
    conserving-channel rate quadratic in the magnetization jump e0."""
    e0sq = np.array([float(r.e0 ** 2) for r in reports if r.e0 != 0])
    cons = np.array([r.gamma_conserving for r in reports if r.e0 != 0])
    slope, intercept = np.polyfit(e0sq, cons, 1)
    resid = cons - (slope * e0sq + intercept)
    r_squared = 1.0 - float(np.sum(resid ** 2)
                            / np.sum((cons - cons.mean()) ** 2))
    stray = max((r.gamma_conserving for r in reports if r.e0 == 0),
                default=0.0)
    lowest = min(r.gamma for r in reports)
    ok = (len(reports) == 3 ** n and r_squared >= 0.999
          and abs(stray) <= 1e-12 and lowest >= -1e-12)
    return ok, (f"{len(reports)} groups, conserving R^2 {r_squared:.6f}, "
                f"zero-jump rate {stray:.1e}, lowest rate {lowest:.2e}")


# =====================================================================
# generic-spectrum
# =====================================================================

def sidon_levels(rng, levels: int, primes, spread: float) -> np.ndarray:
    """Energies unit * a_k on a subset of the Erdos-Turan Sidon set
    a_k = 2 p k + (k^2 mod p): all differences a_j - a_k are distinct
    integers, so distinct Bohr frequencies are >= unit apart."""
    p = int(rng.choice(primes))
    k = np.sort(rng.choice(p, size=levels, replace=False))
    a = 2 * p * k + (k * k) % p
    unit = spread / (2.0 * max(primes) ** 2)
    return unit * (a - a.min()).astype(float)


def _generic_spectrum(cfgs, seed, tiny, root) -> Workload:
    cfg = cfgs["generic"]
    levels = int(cfg["tiny"]["levels"] if tiny else cfg["levels"])
    grid = cfg["times"]
    num = int(cfg["tiny"]["num"] if tiny else grid["num"])
    rng = np.random.default_rng(seed)
    energies = sidon_levels(rng, levels, cfg["primes"], float(cfg["spread"]))
    couplings = []
    for channel in cfg["channels"]:
        raw = rng.normal(size=(levels, levels)) \
            + 1j * rng.normal(size=(levels, levels))
        couplings.append((float(channel["strength"]),
                          (raw + raw.conj().T) / (2.0 * np.sqrt(levels)),
                          form_factor_from_config(channel["form_factor"])))
    spec = build_system(energies, couplings, beta=float(cfg["beta"]))
    psi = rng.normal(size=levels) + 1j * rng.normal(size=levels)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    times = np.linspace(float(grid["start"]), float(grid["stop"]), num)

    state = {}

    def energies_op(_):
        state["res"] = resonance_energies(spec, parallel=1)
        return state["res"]

    def nonoverlap_op(_):
        return check_nonoverlap(spec, resonances=state["res"])

    def evolution_op(_):
        return resonance_evolution(spec, rho0, times,
                                   resonances=state["res"])

    ops = [
        Op("resonance_energies", energies_op,
           lambda res: _check_generic_groups(res, levels)),
        Op("check_nonoverlap", nonoverlap_op, _check_margin,
           warn=_margin_warning),
        Op(f"resonance_evolution:{num}_times", evolution_op,
           lambda traj: _check_trace(traj, num, levels)),
    ]
    return Workload("generic-spectrum", ops)


def _check_generic_groups(res, levels) -> tuple:
    """Group structure of a non-degenerate spectrum, and conjugate
    pairing: the group at -e carries -conj of the group at e."""
    by_e = {round(r.e, 10): r for r in res}
    sizes_ok = (len(res) == levels * (levels - 1) + 1
                and all(len(r.pairs) == (levels if r.e == 0.0 else 1)
                        for r in res))
    worst = 0.0
    for r in by_e.values():
        partner = by_e.get(round(-r.e, 10))
        if partner is None:
            return False, f"group e = {r.e:.6g} has no partner at -e"
        got = partner.epsilons
        want = -np.conj(r.epsilons)
        got = got[np.lexsort((got.real, got.imag))]
        want = want[np.lexsort((want.real, want.imag))]
        worst = max(worst, float(np.max(np.abs(got - want))))
    return sizes_ok and worst <= 1e-9, (
        f"{len(res)} groups, sizes {'ok' if sizes_ok else 'WRONG'}, "
        f"conjugate pairing deviation {worst:.1e}")


def _check_margin(report) -> tuple:
    ok = np.isfinite(report.margin) and report.margin > 0.0
    return ok, f"non-overlap margin {report.margin:.4g}"


def _margin_warning(report) -> list:
    if report.margin < MARGIN_WARN:
        return [f"check_nonoverlap: non-overlap margin {report.margin:.4g} "
                f"below {MARGIN_WARN:g}"]
    return []


def _check_trace(traj, num, levels) -> tuple:
    dev = traj.max_trace_deviation
    ok = traj.states.shape == (num, levels, levels) and dev <= 1e-10
    return ok, f"trace deviation {dev:.1e}"


# =====================================================================
# oracle-sector
# =====================================================================

#: three-level reconstruction: the acceptance case at two ninths of its
#: modes, on a horizon cut below the bath's recurrence time
THREE_LEVEL_MODES, THREE_LEVEL_OMEGA_MAX, THREE_LEVEL_TIMES = 80, 1.9, 201
THREE_LEVEL_CUTOFF = 3
#: tiny sizes for the smoke check: smaller sectors (cap 2) that still
#: pass every check
THREE_LEVEL_TINY = {"n_modes": 40, "fock_cutoff": 2}
VERIFY_TINY = {"n_modes": 120, "fock_cutoff": 2, "lambdas": (0.014,)}


def _oracle_sector(cfgs, seed, tiny, root) -> Workload:
    rng = np.random.default_rng(seed)
    cfg_q = cfgs["verify"]
    spec_q = system_from_config(cfg_q)
    section = dict(cfg_q["verify"])
    section["lambdas"] = tuple(section["lambdas"])
    if tiny:
        section.update(VERIFY_TINY)
    vconfig = VerifyConfig(**section)
    # a pure qubit state with both populations in [0.3, 0.7] and a
    # random coherence phase, so that every rate check has a signal
    pop = rng.uniform(0.3, 0.7)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    psi = np.array([np.sqrt(pop), np.sqrt(1.0 - pop) * np.exp(1j * phase)])
    rho_q = np.outer(psi, psi.conj())

    cfg_3 = cfgs["three_level"]
    spec_3 = system_from_config(cfg_3)
    rho_3 = matrix_from_config(cfg_3["evolve"]["initial_state"])
    bath_size = THREE_LEVEL_TINY if tiny else {
        "n_modes": THREE_LEVEL_MODES, "fock_cutoff": THREE_LEVEL_CUTOFF}

    def three_level_op(_):
        resonances = resonance_energies(spec_3, parallel=1)
        gamma_min = min(r.gamma for r in resonances if r.gamma > 0.0)
        bath = discretize_bath(spec_3.couplings[0].form_factor, spec_3.beta,
                               omega_max=THREE_LEVEL_OMEGA_MAX, **bath_size)
        horizon = min(5.0 / gamma_min, 0.7 * bath.recurrence_time)
        times = np.linspace(0.0, horizon, THREE_LEVEL_TIMES)
        oracle = exact_evolve(spec_3, bath, rho_3, times)
        recon = resonance_evolution(spec_3, rho_3, times,
                                    resonances=resonances)
        return spec_3.overall_coupling, oracle, recon

    ops = [
        Op("verify:verify_qubit",
           lambda _: verify(spec_q, vconfig, rho0=rho_q), _check_verify),
        Op(f"three_level:{bath_size['n_modes']}_modes", three_level_op,
           _check_three_level),
    ]
    return Workload("oracle-sector", ops)


def _check_verify(report) -> tuple:
    worst = max(report.checks, key=lambda c: c.deviation / c.tolerance)
    return report.passed, (f"{len(report.checks)} checks "
                           f"{'PASS' if report.passed else 'FAIL'}, "
                           f"worst {worst.name} {worst.deviation:.3e} "
                           f"(tolerance {worst.tolerance:.3e})")


def _check_three_level(result) -> tuple:
    lam, oracle, recon = result
    dyn_range = float(np.max(np.abs(oracle.states - oracle.states[0])))
    tol = max(5.0 * lam ** 2, 0.05 * dyn_range)
    dev = float(np.max(np.abs(recon.states - oracle.states)))
    ok = dev <= tol and recon.max_trace_deviation <= 1e-10
    return ok, f"deviation {dev:.4f} vs tolerance {tol:.4f}"


# =====================================================================
# cli-cold
# =====================================================================

def _golden() -> dict:
    with open(HERE / "cli_golden.json", "r", encoding="utf-8") as handle:
        return json.load(handle)["sha256"]


def cli_argv(subcommand: str, args) -> list:
    return [subcommand, *args, "--parallel", "1"]


def run_child(cmd, root: Path, env: dict, out_dir: Path, tag: str,
              timeout: float = 170.0) -> dict:
    """Run one child process to completion with its output in files.

    Returns its exit code, standard output bytes, standard error text
    and peak resident set size; the child is reaped with ``wait4`` so
    the RSS is that child's own.  A child still running after
    ``timeout`` seconds is killed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{tag}.out"
    err_path = out_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
            "maxrss_kb": usage.ru_maxrss}


def _cli_cold(cfgs, seed, tiny, root) -> Workload:
    golden = _golden()
    order = np.random.default_rng(seed).permutation(len(CLI_COMMANDS))
    ops = []
    for i in order:
        name, sub, args = CLI_COMMANDS[i]
        ops.append(Op(name, _cli_runner(name, sub, args, root),
                      _cli_checker(golden[name])))
    return Workload("cli-cold", ops, in_process=False)


def _cli_runner(name, sub, args, root):
    def run(trace_file):
        argv = cli_argv(sub, args)
        if trace_file is None:
            cmd = [sys.executable, "-m", "resodec", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   str(trace_file), *argv]
        return run_child(cmd, root, child_env(root), root / OUT_DIR / "cli",
                         name.replace(":", "-"))
    return run


def _cli_checker(want: str):
    def check(result):
        digest = hashlib.sha256(result["stdout"]).hexdigest()
        ok = result["returncode"] == 0 and digest == want
        detail = f"exit {result['returncode']}, CSV " + (
            "byte-identical" if digest == want
            else f"differs (sha256 {digest[:12]}, recorded {want[:12]})")
        return ok, detail
    return check
