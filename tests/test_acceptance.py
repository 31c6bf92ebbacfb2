"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
summary line (visible with ``pytest -rA`` or ``-s``) before asserting.

The first check states the paper's single-qubit closed form in terms of
xi alone, converted to this package's conventions (xi as defined in
``reservoir.xi``, the field entering through the position quadrature as
described in the ``oracle`` module docstring): a pi prefactor in both
linewidths and xi(0)/2 for the zero-frequency term.  Both prefactors are
fixed by the exact truncated-bath oracle, not by the perturbative code
under test: the pi by ``test_oracle_rate_fit_and_gibbs`` below, the
xi(0)/2 by ``test_dephasing_rate_fixes_zero_frequency_term`` in
``test_oracle.py``.  The companion test directly below it states the
same constants through the thermal density D(0) = xi(0)/2.
"""

import dataclasses
import time

import numpy as np
import pytest

from resodec.config import load_config, register_from_config, system_from_config
from resodec.errors import TruncationWarning
from resodec.model import (
    FormFactor,
    build_system,
    gibbs_state,
)
from resodec.dynamics import resonance_evolution
from resodec.oracle import TruncatedBath, discretize_bath, exact_evolve, fit_decay
from resodec.register import (
    RegisterTemplate,
    decoherence_rates,
    generic_field_check,
    hamming_and_e0,
    scaling_study,
)
from resodec.reservoir import (
    mean_inverse_frequency,
    one_sided_density,
    pv_energy_shift,
    thermal_spectral_density,
    xi,
    xi_lorentzian_check,
)
from resodec.resonances import resonance_energies

from conftest import CONFIG_DIR, single_qubit_spec


def announce(name, passed, detail=""):
    line = f"criterion {name}: " + ("PASS" if passed else "FAIL")
    if detail:
        line += f"  ({detail})"
    print(line)
    return line


def rel_dev(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def random_spec(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    energies = np.sort(rng.uniform(0.0, 1.0, n)) * np.arange(1, n + 1)
    n_channels = 2 if n <= 3 else 1
    couplings = []
    for _ in range(n_channels):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G = (raw + raw.conj().T) / 2.0
        ff = FormFactor(radial_exponent=float(rng.choice([-0.5, 0.5, 1.0])),
                        decay_exponent=int(rng.choice([1, 2])),
                        overall_scale=float(rng.uniform(0.5, 1.5)))
        couplings.append((float(rng.uniform(0.005, 0.03)), G, ff))
    return build_system(energies, couplings,
                        beta=float(rng.uniform(0.5, 2.0)))


def uniform_pure_state(n):
    v = np.ones(n, dtype=complex) / np.sqrt(n)
    return np.outer(v, v.conj())


# =====================================================================
# 1. Single-qubit closed-form constants
# =====================================================================

def _qubit_resonance_observables():
    spec = system_from_config(load_config(CONFIG_DIR / "single_qubit.json"))
    a = spec.couplings[0].matrix[0, 0].real
    b = spec.couplings[0].matrix[1, 1].real
    c = spec.couplings[0].matrix[0, 1]
    g = spec.couplings[0].form_factor
    lam, beta = spec.overall_coupling, spec.beta
    delta = float(spec.energies[1] - spec.energies[0])

    data = {r.e: r for r in resonance_energies(spec)}
    im_zero = float(np.max(data[0.0].epsilons.imag))
    eps_up = data[delta].epsilons[0]

    x_delta = xi(g, beta, delta)
    x_zero = xi(g, beta, 0.0)
    r_disp = ((a * a - b * b) * 0.5 * mean_inverse_frequency(g)
              - abs(c) ** 2 * 0.5 * pv_energy_shift(g, beta, delta))
    return dict(a=a, b=b, c=c, g=g, lam=lam, beta=beta, delta=delta,
                im_zero=im_zero, eps_up=eps_up, x_delta=x_delta,
                x_zero=x_zero, r_disp=r_disp)


def test_single_qubit_constants_as_given():
    start = time.monotonic()
    o = _qubit_resonance_observables()
    lam, c, a, b = o["lam"], o["c"], o["a"], o["b"]

    # the paper's closed form in terms of xi, in this package's
    # conventions.  The pi (not pi^2) prefactor is fixed by the oracle
    # rate fit in test_oracle_rate_fit_and_gibbs, whose |c|^2 rate lies
    # within 0.2 of lambda^2 pi |c|^2 xi(Delta)
    target_im_zero = lam ** 2 * np.pi * abs(c) ** 2 * o["x_delta"]
    # pi / 2 as above; the zero-frequency weight xi(0)/2 (not the full
    # xi(0)) is fixed by the exact pure-dephasing decay in
    # test_oracle.py::test_dephasing_rate_fixes_zero_frequency_term
    target_im_up = (lam ** 2 * np.pi / 2.0) \
        * (abs(c) ** 2 * o["x_delta"] + (b - a) ** 2 * o["x_zero"] / 2.0)
    target_re_up = o["delta"] + lam ** 2 * o["r_disp"]

    devs = (rel_dev(o["im_zero"], target_im_zero),
            rel_dev(o["eps_up"].imag, target_im_up),
            rel_dev(o["eps_up"].real, target_re_up))
    passed = max(devs) <= 1e-8
    elapsed = time.monotonic() - start
    announce("single-qubit constants as given", passed,
             f"relative deviations {devs[0]:.3e}/{devs[1]:.3e}/"
             f"{devs[2]:.3e}, {elapsed:.2f}s")
    assert passed, (
        "resonance energies deviate from the closed form lambda^2 pi "
        "|c|^2 xi(Delta) and (lambda^2 pi / 2)(|c|^2 xi(Delta) + "
        "(b - a)^2 xi(0) / 2)")


def test_single_qubit_constants_as_derived():
    start = time.monotonic()
    o = _qubit_resonance_observables()
    lam, c, a, b = o["lam"], o["c"], o["a"], o["b"]

    d_zero = thermal_spectral_density(o["g"], o["beta"], 0.0)
    want_im_zero = lam ** 2 * np.pi * abs(c) ** 2 * o["x_delta"]
    want_im_up = (lam ** 2 * np.pi / 2.0) \
        * (abs(c) ** 2 * o["x_delta"] + (b - a) ** 2 * d_zero)
    want_re_up = o["delta"] + lam ** 2 * o["r_disp"]

    devs = (rel_dev(o["im_zero"], want_im_zero),
            rel_dev(o["eps_up"].imag, want_im_up),
            rel_dev(o["eps_up"].real, want_re_up))
    passed = max(devs) <= 1e-8
    announce("single-qubit constants as derived", passed,
             f"relative deviations {devs[0]:.3e}/{devs[1]:.3e}/"
             f"{devs[2]:.3e}, {time.monotonic() - start:.2f}s")
    assert passed
    assert time.monotonic() - start < 1.0


# =====================================================================
# 2. Conjugate pairing across random specs
# =====================================================================

def test_conjugate_pairing_twenty_random_specs():
    start = time.monotonic()
    worst = 0.0
    for seed in range(300, 320):
        spec = random_spec(seed)
        data = {round(r.e, 10): r for r in resonance_energies(spec)}
        for r in data.values():
            partner = data[round(-r.e, 10)]
            got = partner.epsilons
            want = -np.conj(r.epsilons)
            got = got[np.lexsort((got.real, got.imag))]
            want = want[np.lexsort((want.real, want.imag))]
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - start
    passed = worst <= 1e-9 and elapsed < 10.0
    announce("conjugate pairing", passed,
             f"worst deviation {worst:.3e}, {elapsed:.2f}s")
    assert passed


# =====================================================================
# 3. Oracle decay rates and coupling-strength scaling
# =====================================================================

def test_oracle_rate_fit_and_gibbs():
    start = time.monotonic()
    g = FormFactor(radial_exponent=0.5, decay_exponent=2,
                   overall_scale=6.0)
    bath = discretize_bath(g, beta=30.0, n_modes=150, omega_max=3.0,
                           fock_cutoff=3)
    horizons = {0.01: 250.0, 0.02: 160.0}
    fitted, ratios, gibbs_devs = {}, {}, {}
    for lam, horizon in horizons.items():
        spec = single_qubit_spec(a=0.0, b=0.0, c=1.0, delta=1.0, g=g,
                                 beta=30.0, lam=lam)
        coh_group = next(r for r in resonance_energies(spec)
                         if abs(r.e - 1.0) < 1e-9)
        gamma_theory = float(coh_group.epsilons.imag[0])
        times = np.linspace(0.0, horizon, 161)
        # 150 modes at cap 3 exceed the sector engine's state-space limit
        with pytest.warns(TruncationWarning, match="excitation cap lowered "
                          "from the requested 3 to 2"):
            traj = exact_evolve(spec, bath, uniform_pure_state(2), times)
        fit = fit_decay(traj, (0, 1))
        fitted[lam] = fit.rate
        ratios[lam] = fit.rate / gamma_theory
        w = np.diag(gibbs_state(spec).entries).real
        gibbs_devs[lam] = float(np.max(np.abs(
            np.diag(traj.ergodic_mean).real - w)))

    exponent = float(np.log(fitted[0.02] / fitted[0.01]) / np.log(2.0))
    elapsed = time.monotonic() - start
    passed = (all(abs(r - 1.0) <= 0.2 for r in ratios.values())
              and abs(exponent - 2.0) <= 0.1
              and all(d <= max(0.05, 5.0 * lam ** 2)
                      for lam, d in gibbs_devs.items())
              and elapsed < 60.0)
    announce("oracle rate check", passed,
             f"rate ratios {ratios[0.01]:.3f}/{ratios[0.02]:.3f}, "
             f"exponent {exponent:.3f}, Gibbs deviations "
             f"{gibbs_devs[0.01]:.3e}/{gibbs_devs[0.02]:.3e}, "
             f"{elapsed:.1f}s")
    assert passed


# =====================================================================
# 4. Pure dephasing conserves populations
# =====================================================================

def test_pure_dephasing_exactness():
    start = time.monotonic()
    g = FormFactor(radial_exponent=-0.5, decay_exponent=1)
    spec = single_qubit_spec(a=0.2, b=-0.4, c=0.0, delta=1.0, g=g,
                             beta=1.0, lam=0.01)
    freqs = np.array([0.3, 0.9, 1.5, 2.1, 2.7])
    weights = one_sided_density(g, freqs) * 0.6
    bath = TruncatedBath(mode_frequencies=freqs,
                         mode_couplings=np.sqrt(weights),
                         fock_cutoff=2, beta=1.0)
    times = np.linspace(0.0, 40.0, 81)
    # the hot bath (beta = 1) is thermofield-doubled and cut at two quanta
    # in all; pure dephasing conserves populations in that sector exactly
    traj = exact_evolve(spec, bath, uniform_pure_state(2), times)
    pops = traj.states[:, [0, 1], [0, 1]].real
    pop_drift = float(np.max(np.abs(pops - pops[0])))

    zero_group = next(r for r in resonance_energies(spec) if r.e == 0.0)
    im_zero = float(np.max(np.abs(zero_group.deltas.imag)))

    elapsed = time.monotonic() - start
    passed = (pop_drift <= 1e-12 and im_zero <= 1e-14
              and zero_group.gamma == 0.0 and elapsed < 30.0)
    announce("pure dephasing", passed,
             f"population drift {pop_drift:.3e}, population-group "
             f"linewidth {im_zero:.3e}, {elapsed:.2f}s")
    assert passed


# =====================================================================
# 5. Register rates quadratic in the magnetization jump
# =====================================================================

def test_register_rate_quadratic_in_e0():
    start = time.monotonic()
    reg = register_from_config(load_config(CONFIG_DIR / "reg4.json"))
    reg = dataclasses.replace(reg, lambda2=0.0)
    reports = decoherence_rates(reg)

    x = np.array([float(r.e0 ** 2) for r in reports if r.e0 != 0])
    y = np.array([r.gamma for r in reports if r.e0 != 0])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r_squared = 1.0 - float(np.sum(resid ** 2)
                            / np.sum((y - y.mean()) ** 2))
    stray = max((r.gamma for r in reports if r.e0 == 0), default=0.0)

    elapsed = time.monotonic() - start
    passed = r_squared >= 0.999 and stray <= 1e-12 and elapsed < 30.0
    announce("register rates quadratic in e0", passed,
             f"R^2 {r_squared:.6f}, largest zero-jump rate {stray:.3e}, "
             f"{elapsed:.2f}s")
    assert passed


# =====================================================================
# 6. Decay-rate scaling with register size
# =====================================================================

def test_rate_scaling_with_register_size():
    start = time.monotonic()
    template = RegisterTemplate(
        lambda1=0.01, lambda2=0.01,
        g1=FormFactor(radial_exponent=-0.5, decay_exponent=1),
        g2=FormFactor(radial_exponent=0.5, decay_exponent=1),
        beta=0.5, b_interval=(0.45, 0.55))
    table = scaling_study(template, range(2, 9), seed=0xD1CE, parallel=4)
    g0 = np.array([row.gamma0 for row in table.rows if row.n_qubits <= 6])
    spread = float((g0.max() - g0.min()) / g0.mean())

    elapsed = time.monotonic() - start
    passed = (abs(table.conserving_exponent - 2.0) <= 0.1
              and abs(table.exchange_exponent - 1.0) <= 0.15
              and spread <= 0.05
              and elapsed < 300.0)
    announce("size scaling of rates", passed,
             f"exponents {table.conserving_exponent:.4f}/"
             f"{table.exchange_exponent:.4f}, thermalization-rate "
             f"spread {spread:.4f}, {elapsed:.1f}s")
    assert passed


# =====================================================================
# 7. Three-level reconstruction against the oracle
# =====================================================================

def test_three_level_reconstruction_matches_oracle():
    start = time.monotonic()
    cfg = load_config(CONFIG_DIR / "three_level.json")
    spec = system_from_config(cfg)
    lam = spec.overall_coupling
    resonances = resonance_energies(spec)
    gamma_min = min(r.gamma for r in resonances if r.gamma > 0.0)
    times = np.linspace(0.0, 5.0 / gamma_min, 201)

    bath = discretize_bath(spec.couplings[0].form_factor, spec.beta,
                           n_modes=360, omega_max=1.9, fock_cutoff=3)
    rho0 = uniform_pure_state(3)
    # 360 modes at cap 3 exceed the sector engine's state-space limit
    with pytest.warns(TruncationWarning, match="excitation cap lowered "
                      "from the requested 3 to 2"):
        oracle = exact_evolve(spec, bath, rho0, times)
    recon = resonance_evolution(spec, rho0, times, resonances=resonances)

    dyn_range = float(np.max(np.abs(oracle.states - oracle.states[0])))
    tol = max(5.0 * lam ** 2, 0.05 * dyn_range)
    dev = float(np.max(np.abs(recon.states - oracle.states)))

    # block independence: scaling one Bohr group's initial elements
    # rescales exactly that group's trajectory and touches nothing else
    rho_scaled = rho0.copy()
    rho_scaled[0, 1] *= 0.7
    rho_scaled[1, 0] *= 0.7
    other = resonance_evolution(spec, rho_scaled, times,
                                resonances=resonances)
    untouched = np.ones((3, 3), dtype=bool)
    untouched[0, 1] = untouched[1, 0] = False
    blocks_ok = (
        np.array_equal(other.states[:, untouched],
                       recon.states[:, untouched])
        and np.allclose(other.states[:, 0, 1],
                        0.7 * recon.states[:, 0, 1], rtol=1e-13)
        and np.allclose(other.states[:, 1, 0],
                        0.7 * recon.states[:, 1, 0], rtol=1e-13))

    elapsed = time.monotonic() - start
    passed = (dev <= tol and blocks_ok
              and recon.max_trace_deviation <= 1e-10
              and recon.max_hermiticity_deviation <= 1e-10
              and elapsed < 120.0)
    announce("three-level reconstruction", passed,
             f"deviation {dev:.4f} vs tolerance {tol:.4f}, blocks "
             f"independent {blocks_ok}, {elapsed:.1f}s")
    assert passed


# =====================================================================
# 8. Property suite
# =====================================================================

def test_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(20240820)

    # nonnegative thermal spectral function, Lorentzian-limit recovery
    xi_ok = True
    for _ in range(30):
        ff = FormFactor(radial_exponent=float(rng.uniform(-0.5, 3.0)),
                        decay_exponent=int(rng.choice([1, 2])),
                        overall_scale=float(rng.uniform(0.2, 2.0)))
        value = xi(ff, float(rng.uniform(0.2, 3.0)),
                   float(rng.uniform(0.0, 4.0)))
        xi_ok = xi_ok and value >= 0.0
    ff = FormFactor(radial_exponent=0.5, decay_exponent=2)
    target = xi(ff, 2.0, 1.3)
    devs = [abs(xi_lorentzian_check(ff, 2.0, 1.3, eps) - target)
            for eps in (1e-2, 1e-3, 1e-4)]
    xi_ok = xi_ok and devs[0] > devs[1] > devs[2] \
        and devs[2] <= 5e-3 * target

    # every second-order shift decays or drifts, never grows, and the
    # population block always retains a conserved mode
    shifts_ok = zero_mode_ok = True
    for seed in (400, 401, 402, 403, 404, 405):
        for r in resonance_energies(random_spec(seed)):
            shifts_ok = shifts_ok and r.deltas.imag.min() >= -1e-10
            if r.e == 0.0:
                zero_mode_ok = zero_mode_ok and \
                    float(np.min(np.abs(r.deltas))) <= 1e-10

    # Hamming distance is a metric (exhaustively, up to four qubits)
    metric_ok = True
    for n in range(1, 5):
        configs = [tuple(1 - 2 * ((i >> j) & 1) for j in range(n))
                   for i in range(2 ** n)]
        dist = {(s, t): hamming_and_e0(s, t)[0]
                for s in configs for t in configs}
        for s in configs:
            for t in configs:
                metric_ok = metric_ok and (dist[s, t] == dist[t, s])
                metric_ok = metric_ok and ((dist[s, t] == 0) == (s == t))
                for u in configs:
                    metric_ok = metric_ok and \
                        dist[s, u] <= dist[s, t] + dist[t, u]

    # bundled field vectors: the drawn one is generic, the constant
    # one admits an integer relation
    generic = register_from_config(
        load_config(CONFIG_DIR / "fields_generic.json"))
    degenerate = register_from_config(
        load_config(CONFIG_DIR / "fields_degenerate.json"))
    rep_gen = generic_field_check(generic.B)
    rep_deg = generic_field_check(degenerate.B)
    fields_ok = (rep_gen.passed and not rep_deg.passed
                 and abs(float(np.dot(degenerate.B, rep_deg.witness)))
                 <= 1e-12)

    # resonance data is invariant under diagonal-phase gauge changes
    # and under relabelling the levels
    spec = random_spec(410)
    base = {round(r.e, 10): r for r in resonance_energies(spec)}
    n = spec.dim

    phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    u = np.diag(phases)
    gauged = build_system(
        spec.energies,
        [(t.strength, u @ t.matrix @ u.conj().T, t.form_factor)
         for t in spec.couplings], beta=spec.beta)
    perm = rng.permutation(n)
    permuted = build_system(
        spec.energies[perm],
        [(t.strength, t.matrix[np.ix_(perm, perm)], t.form_factor)
         for t in spec.couplings], beta=spec.beta)

    invariance_ok = True
    for variant in (gauged, permuted):
        data = {round(r.e, 10): r for r in resonance_energies(variant)}
        invariance_ok = invariance_ok and set(data) == set(base)
        for key, r in data.items():
            got, want = r.deltas, base[key].deltas
            got = got[np.lexsort((got.real, got.imag))]
            want = want[np.lexsort((want.real, want.imag))]
            invariance_ok = invariance_ok and bool(
                np.allclose(got, want, atol=1e-11))

    elapsed = time.monotonic() - start
    passed = (xi_ok and shifts_ok and zero_mode_ok and metric_ok
              and fields_ok and invariance_ok and elapsed < 60.0)
    announce("property suite", passed,
             f"spectral {xi_ok}, shifts {shifts_ok}, zero mode "
             f"{zero_mode_ok}, metric {metric_ok}, fields {fields_ok}, "
             f"invariance {invariance_ok}, {elapsed:.1f}s")
    assert passed
