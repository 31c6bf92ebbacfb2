"""Register specialization: Hamming data, field genericity, rate laws."""

import dataclasses

import numpy as np
import pytest

from resodec.errors import (
    BadConfiguration,
    RegisterTooLarge,
    TooLargeForExhaustiveCheck,
)
from resodec.model import (
    MAX_QUBITS,
    FormFactor,
    RegisterSpec,
    register_to_system,
)
from resodec.register import (
    RegisterTemplate,
    decoherence_rates,
    generic_field_check,
    hamming_and_e0,
    register_bohr,
    scaling_study,
)
from resodec.reservoir import thermal_spectral_density, xi
from resodec.resonances import resonance_energies

G1 = FormFactor(radial_exponent=-0.5, decay_exponent=1)
G2 = FormFactor(radial_exponent=0.5, decay_exponent=1)


def make_register(n=3, **overrides):
    rng = np.random.default_rng(77)
    params = dict(n_qubits=n, J=np.zeros((n, n)),
                  B=rng.uniform(0.45, 0.55, n),
                  lambda1=0.01, lambda2=0.01, g1=G1, g2=G2, beta=0.5)
    params.update(overrides)
    return RegisterSpec(**params)


# =====================================================================
# Configuration-pair combinatorics
# =====================================================================

def test_hamming_identities_exhaustively():
    n = 3
    configs = [tuple(1 - 2 * ((i >> j) & 1) for j in range(n))
               for i in range(2 ** n)]
    for sigma in configs:
        for tau in configs:
            d, e0, n0 = hamming_and_e0(sigma, tau)
            assert d + 2 * n0 == 2 * n
            assert abs(e0) <= d
            assert (d - e0) % 4 == 0
            assert d % 2 == 0 and e0 % 2 == 0
            assert (d == 0) == (sigma == tau)


def test_bad_configurations_rejected():
    with pytest.raises(BadConfiguration):
        hamming_and_e0((), ())
    with pytest.raises(BadConfiguration):
        hamming_and_e0((1, 0), (1, 1))
    with pytest.raises(BadConfiguration):
        hamming_and_e0((1, 1), (1, 1, -1))
    with pytest.raises(BadConfiguration):
        register_bohr(make_register(3), (1, 1), (1, -1))


def test_register_bohr_frequency():
    reg = make_register(3)
    sigma, tau = (1, -1, 1), (-1, -1, -1)
    expected = sum(b * (s - t) for b, s, t in zip(reg.B, sigma, tau))
    assert np.isclose(register_bohr(reg, sigma, tau), expected,
                      rtol=1e-14)

    J = np.array([[0.0, 0.2, 0.0], [0.2, 0.0, -0.1], [0.0, -0.1, 0.0]])
    reg2 = make_register(3, J=J)
    got = register_bohr(reg2, sigma, tau)

    def energy(s):
        pair = sum(2.0 * J[i, j] * s[i] * s[j]
                   for i in range(3) for j in range(i + 1, 3))
        return pair + sum(b * si for b, si in zip(reg2.B, s))

    assert np.isclose(got, energy(sigma) - energy(tau), rtol=1e-13)


# =====================================================================
# Generic-field scan
# =====================================================================

def test_generic_field_check_finds_simplest_witness():
    report = generic_field_check([1.0, 1.0])
    assert not report.passed
    assert report.witness == (1, -1)
    assert abs(np.dot([1.0, 1.0], report.witness)) <= 1e-12


def test_generic_field_check_passes_generic_draw():
    B = [0.463712, 0.508139, 0.484295, 0.542906]
    assert generic_field_check(B).passed


def test_generic_field_check_size_limit():
    with pytest.raises(TooLargeForExhaustiveCheck):
        generic_field_check(np.linspace(0.4, 0.6, 13))


def test_degenerate_field_warns_in_rates():
    reg = make_register(2, B=np.array([0.5, 0.5]), lambda2=0.0)
    with pytest.warns(UserWarning, match="integer relation"):
        decoherence_rates(reg)


def test_merged_groups_are_flagged():
    reg = make_register(2, B=np.array([0.5, 0.5]))
    with pytest.warns(UserWarning, match="integer relation"):
        reports = decoherence_rates(reg)
    for rep in reports:
        jumps = {hamming_and_e0(p.sigma, p.tau)[:2]
                 for p in rep.group_pairs}
        assert rep.merged == (len(jumps) > 1)
        assert (rep.hamming, rep.e0) == hamming_and_e0(
            rep.group_pairs[0].sigma, rep.group_pairs[0].tau)[:2]
    # e = 0 holds the diagonal pairs (D = 0) and the swapped pairs
    # (+1,-1)/(-1,+1), D = 4, of the degenerate field
    zero = next(rep for rep in reports if rep.e == 0.0)
    assert zero.merged
    assert not any(rep.merged for rep in decoherence_rates(make_register(3)))


# =====================================================================
# Exact channel laws
# =====================================================================

def test_conserving_channel_rate_law():
    # with the exchange channel off and J = 0 every group decays at
    # lam1^2 (pi/2) D(0) e0^2 -- quadratic in the magnetization jump
    reg = make_register(3, lambda2=0.0)
    d_zero = thermal_spectral_density(G1, reg.beta, 0.0)
    reports = decoherence_rates(reg)
    assert len(reports) > 1
    for rep in reports:
        expected = reg.lambda1 ** 2 * (np.pi / 2.0) * d_zero * rep.e0 ** 2
        assert np.isclose(rep.gamma, expected, rtol=1e-9, atol=1e-15)
        assert rep.gamma_cross == pytest.approx(0.0, abs=1e-15)
        if rep.e0 == 0:
            assert rep.gamma <= 1e-12


def test_exchange_channel_rate_law():
    reg = make_register(3, lambda1=0.0)
    xi2 = {j: xi(G2, reg.beta, 2.0 * b) for j, b in enumerate(reg.B)}
    reports = decoherence_rates(reg)
    for rep in reports:
        if rep.e == 0.0:
            expected = reg.lambda2 ** 2 * np.pi * min(xi2.values())
        else:
            flipped = [j for j, (s, t) in enumerate(
                zip(rep.group_pairs[0].sigma, rep.group_pairs[0].tau))
                if s != t]
            assert len(flipped) * 2 == rep.hamming
            expected = reg.lambda2 ** 2 * (np.pi / 2.0) \
                * sum(xi2[j] for j in flipped)
        assert np.isclose(rep.gamma, expected, rtol=1e-9, atol=1e-15)


def test_channel_attribution_matches_single_channel_registers():
    # the conserving and exchange rates come from the shared pass; they
    # must equal the rates of the register with the other channel off
    reg = make_register(3, lambda1=0.013, lambda2=0.008)
    reports = decoherence_rates(reg)
    for field, attr in (("lambda2", "gamma_conserving"),
                        ("lambda1", "gamma_exchange"),
                        (None, "gamma")):
        single = reg if field is None else \
            dataclasses.replace(reg, **{field: 0.0})
        data = resonance_energies(register_to_system(single))
        assert [r.e for r in data] == [rep.e for rep in reports]
        assert [r.gamma for r in data] == \
            [getattr(rep, attr) for rep in reports]


def test_two_channel_attribution_adds_for_singletons():
    reg = make_register(2)
    reports = decoherence_rates(reg)
    es = [rep.e for rep in reports]
    assert es == sorted(es)
    for rep in reports:
        if len(rep.group_pairs) == 1:
            assert abs(rep.gamma_cross) <= 1e-12 * max(rep.gamma, 1e-30)


# =====================================================================
# Templates and scaling
# =====================================================================

def test_template_realization_seeding_and_attenuation():
    template = RegisterTemplate(lambda1=0.01, lambda2=0.02, g1=G1, g2=G2,
                                beta=0.5, b_interval=(0.45, 0.55))
    reg_a = template.realize(4, seed=123)
    reg_b = template.realize(4, seed=123)
    reg_c = template.realize(4, seed=124)
    assert np.array_equal(reg_a.B, reg_b.B)
    assert not np.array_equal(reg_a.B, reg_c.B)
    assert np.all((reg_a.B >= 0.45) & (reg_a.B <= 0.55))

    thin = template.realize(4, seed=123, attenuate=True)
    assert np.isclose(thin.lambda1, 0.01 / 4)
    assert np.isclose(thin.lambda2, 0.02 / 2.0)

    with pytest.raises(ValueError):
        RegisterTemplate(lambda1=0.01, lambda2=0.02, g1=G1, g2=G2,
                         beta=0.5, b_interval=(0.6, 0.5))


def test_scaling_study_small_sizes():
    template = RegisterTemplate(lambda1=0.01, lambda2=0.01, g1=G1, g2=G2,
                                beta=0.5)
    table = scaling_study(template, [3, 2], seed=7)
    assert [row.n_qubits for row in table.rows] == [2, 3]
    for row in table.rows:
        assert row.max_gamma_conserving > 0.0
        assert row.max_gamma_exchange > 0.0
        assert row.gamma0 > 0.0
    assert np.isfinite(table.conserving_exponent)
    assert np.isfinite(table.exchange_exponent)
    assert table.gamma0_spread >= 0.0

    with pytest.raises(ValueError):
        scaling_study(template, [])


def test_scaling_study_rejects_oversized_list_before_any_size(monkeypatch):
    import resodec.register as register

    def no_pass(*args, **kwargs):
        pytest.fail("a size was computed before the size check")

    monkeypatch.setattr(register, "_resonance_mixes", no_pass)
    template = RegisterTemplate(lambda1=0.01, lambda2=0.01, g1=G1, g2=G2,
                                beta=0.5)
    with pytest.raises(RegisterTooLarge):
        scaling_study(template, [2, MAX_QUBITS + 1])
