"""Register specialization: Hamming data, field genericity, rate laws."""

import dataclasses
import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from resodec.cli import run
from resodec.config import load_config, register_from_config
from resodec.dynamics import resonance_evolution
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
    spin_configuration,
)
from resodec.register import (
    RegisterTemplate,
    ScalingRow,
    decoherence_rates,
    generic_field_check,
    hamming_and_e0,
    scaling_study,
)
from resodec.reservoir import thermal_spectral_density, xi
from resodec.resonances import bohr_spectrum, resonance_energies

from conftest import CONFIG_DIR, NARROW_B_INTERVAL, \
    NEAR_RELATION_FIELDS

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
    # each spin passes the integer check: an integral float is a spin,
    # a boolean is not
    for sigma in ((True, -1), (np.True_, -1), (1, False),
                  (1, np.float64(-1.5)), (1.5, -1), (1, "-1"), (1, None),
                  [[1, -1]], [[1], [1, -1]]):
        with pytest.raises(BadConfiguration, match="spin"):
            hamming_and_e0(sigma, (1, 1))
    assert hamming_and_e0((1.0, -1), (1, 1)) == (2, -2, 1)


def test_generic_field_check_finds_simplest_witness():
    report = generic_field_check([1.0, 1.0])
    assert not report.passed
    assert report.witness == (1, -1)
    assert abs(np.dot([1.0, 1.0], report.witness)) <= 1e-12


def test_generic_field_check_passes_generic_draw():
    B = [0.463712, 0.508139, 0.484295, 0.542906]
    assert generic_field_check(B).passed


def reference_field_witness(B):
    """First witness of the scan as the plain loop over product order,
    or None: the reference for generic_field_check's table search."""
    B = np.asarray(B, dtype=float)
    threshold = 1e-12 * float(np.max(np.abs(B)))
    for vec in product((0, 1, -1, 2, -2), repeat=B.size):
        if all(v == 0 for v in vec):
            continue
        if abs(float(np.dot(B, vec))) <= threshold:
            return vec
    return None


#: distinct prime denominators, so rational fields hold no relation
#: but the planted one
PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091)


def test_generic_field_check_matches_loop_on_planted_relations():
    rng = np.random.default_rng(2718)
    for n in range(2, 10):
        # rational fields with one planted relation sum_j c_j B_j = 0,
        # solved exactly for one entry; for n > 7 the relation reaches
        # into the positions outside the table of suffix sums
        B = [Fraction(int(rng.integers(4500, 5500)), p)
             for p in PRIMES[:n]]
        support = [int(j) for j in rng.permutation(n)[:3]]
        if n > 7:
            support = [n - 8] + [j for j in support if j != n - 8][:2]
        coeffs = rng.choice([1, -1, 2, -2], size=len(support) - 1)
        B[support[0]] = -sum(int(c) * B[j] for c, j in
                             zip(coeffs, support[1:]))
        B = [float(b) for b in B]
        report = generic_field_check(B)
        assert not report.passed
        assert report.witness == reference_field_witness(B)
        assert abs(np.dot(B, report.witness)) <= 1e-12 * max(map(abs, B))


def test_generic_field_check_matches_loop_on_generic_draws():
    rng = np.random.default_rng(3141)
    for n in range(1, 8):
        B = rng.uniform(0.45, 0.55, n)
        assert reference_field_witness(B) is None
        assert generic_field_check(B).passed


def test_generic_field_check_size_limit():
    with pytest.raises(TooLargeForExhaustiveCheck):
        generic_field_check(np.linspace(0.4, 0.6, 13))


def test_degenerate_field_warns_in_rates():
    reg = make_register(2, B=np.array([0.5, 0.5]), lambda2=0.0)
    with pytest.warns(UserWarning,
                      match=r"hold pairs with different \(D, e0\)"):
        decoherence_rates(reg)


def test_merged_groups_are_flagged():
    reg = make_register(2, B=np.array([0.5, 0.5]))
    with pytest.warns(UserWarning,
                      match=r"hold pairs with different \(D, e0\)"):
        reports = decoherence_rates(reg)
    for rep in reports:
        jumps = {hamming_and_e0(*spin_configuration(pair, 2))[:2]
                 for pair in rep.pairs}
        assert rep.merged == (len(jumps) > 1)
        assert (rep.hamming, rep.e0) == hamming_and_e0(
            *spin_configuration(rep.pairs[0], 2))[:2]
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
                zip(*spin_configuration(rep.pairs[0], 3))) if s != t]
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
        for r, rep in zip(data, reports):
            assert np.array_equal(r.pairs, rep.pairs)
            assert not rep.pairs.flags.writeable
        assert [r.gamma for r in data] == \
            [getattr(rep, attr) for rep in reports]


def test_two_channel_attribution_adds_for_singletons():
    reg = make_register(2)
    reports = decoherence_rates(reg)
    es = [rep.e for rep in reports]
    assert es == sorted(es)
    for rep in reports:
        if len(rep.pairs) == 1:
            assert abs(rep.gamma_cross) <= 1e-12 * max(rep.gamma, 1e-30)


@pytest.mark.parametrize("n, n_groups", [(3, 57), (4, 241)])
@pytest.mark.parametrize("seed", [2, 3, 4])
def test_interacting_register_end_to_end(tmp_path, n, seed, n_groups):
    # J != 0 splits the flip patterns into more than 3^N groups, none of
    # them merged; the conserving channel still couples through the
    # diagonal magnetization alone, so its rate law holds group by group
    reg4 = json.loads((CONFIG_DIR / "reg4.json").read_text())
    rng = np.random.default_rng(seed)
    J = np.triu(rng.uniform(-0.05, 0.05, (n, n)), 1)
    reg4["register"].update(n=n, J=(J + J.T).tolist(),
                            B=rng.uniform(0.45, 0.55, n).tolist())
    path = tmp_path / "interacting.json"
    path.write_text(json.dumps(reg4))
    reg = register_from_config(load_config(path))
    assert reg.J.any()

    reports = decoherence_rates(reg)
    assert len(reports) == n_groups
    assert not any(rep.merged for rep in reports)
    d_zero = thermal_spectral_density(reg.g1, reg.beta, 0.0)
    for rep in reports:
        law = reg.lambda1 ** 2 * (np.pi / 2.0) * d_zero * rep.e0 ** 2
        if rep.e0 == 0:
            assert rep.gamma_conserving == 0.0
        else:
            assert abs(rep.gamma_conserving - law) <= 1e-14 * law
        assert rep.gamma > 0.0

    spec = register_to_system(reg)
    rho0 = np.full((spec.dim, spec.dim), 1.0 / spec.dim)
    with pytest.warns(UserWarning, match="separation margin"):
        states = resonance_evolution(spec, rho0,
                                     np.linspace(0.0, 1000.0, 11)).states
    trace = np.trace(states, axis1=1, axis2=2)
    assert np.max(np.abs(trace - 1.0)) <= 1e-10
    assert np.max(np.abs(states - states.conj().swapaxes(1, 2))) <= 1e-10

    assert run(["rates", "--config", str(path),
                "-o", str(tmp_path / "rates.csv")]) == 0


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


def test_scaling_study_takes_integral_sizes_only(monkeypatch):
    # integral floats are sizes; anything else is refused, not truncated
    template = RegisterTemplate(lambda1=0.01, lambda2=0.01, g1=G1, g2=G2,
                                beta=0.5)
    assert scaling_study(template, [3.0, 2.0], seed=7) \
        == scaling_study(template, [3, 2], seed=7)

    import resodec.register as register

    def no_pass(*args, **kwargs):
        pytest.fail("a size was computed before the size check")

    monkeypatch.setattr(register, "_resonance_mixes", no_pass)
    for n_list in ([2.7, 3.2], [2, 3.5], ["3"], [True, 2]):
        with pytest.raises(BadConfiguration, match="n_list must be an "
                                                   "integer"):
            scaling_study(template, n_list)


def test_scaling_study_rejects_sizes_below_1_or_repeated(monkeypatch):
    # [-1] would reach numpy's seed check; [2, 2] would fit a log-log
    # slope through one distinct size
    import resodec.register as register

    def no_pass(*args, **kwargs):
        pytest.fail("a size was computed before the size check")

    monkeypatch.setattr(register, "_resonance_mixes", no_pass)
    template = RegisterTemplate(lambda1=0.01, lambda2=0.01, g1=G1, g2=G2,
                                beta=0.5)
    for n_list in ([-1], [0, 2], [2, 2], [3, 2, 3.0]):
        with pytest.raises(BadConfiguration,
                           match="distinct sizes >= 1"):
            scaling_study(template, n_list)


def test_scaling_study_rejects_oversized_list_before_any_size(monkeypatch):
    import resodec.register as register

    def no_pass(*args, **kwargs):
        pytest.fail("a size was computed before the size check")

    monkeypatch.setattr(register, "_resonance_mixes", no_pass)
    template = RegisterTemplate(lambda1=0.01, lambda2=0.01, g1=G1, g2=G2,
                                beta=0.5)
    with pytest.raises(RegisterTooLarge):
        scaling_study(template, [2, MAX_QUBITS + 1])


def _all_groups_reference(template, n_list, seed, attenuate, tol):
    """scaling_study's rows, from one pass over every Bohr group."""
    from resodec.resonances import _resonance_mixes

    rows = []
    for n in n_list:
        reg = template.realize(n, seed, attenuate=attenuate)
        spec = register_to_system(reg)
        cons, exch = _resonance_mixes(
            spec, [(reg.lambda1, 0.0), (0.0, reg.lambda2)],
            bohr_spectrum(spec, tol))
        rows.append(ScalingRow(
            n_qubits=n,
            max_gamma_conserving=max(r.gamma for r in cons),
            max_gamma_exchange=max(r.gamma for r in exch),
            gamma0=next(r.gamma for r in exch if r.e == 0.0)))
    return tuple(rows)


def _spy_diagonalized(monkeypatch):
    """Record (group size, group count) of every batched
    diagonalization."""
    import resodec.resonances as resonances

    calls = []
    diagonalize = resonances._diagonalize_groups

    def spy(es, groups, lam_mats, lam):
        calls.append((lam_mats.shape[1], len(es)))
        return diagonalize(es, groups, lam_mats, lam)

    monkeypatch.setattr(resonances, "_diagonalize_groups", spy)
    return calls


@pytest.mark.parametrize("g1, g2", [
    (G1, G2),
    (FormFactor(radial_exponent=-0.5, decay_exponent=2, overall_scale=1.3),
     FormFactor(radial_exponent=1.5, decay_exponent=2, overall_scale=0.8)),
])
def test_scaling_study_group_subset_is_bit_identical(g1, g2):
    # the size-1 and size-2^N groups give the same maxima and gamma0 as
    # all 3^N groups, to the last bit, at the default and a given tol
    template = RegisterTemplate(lambda1=0.01, lambda2=0.02, g1=g1, g2=g2,
                                beta=0.5)
    for seed in (7, 301, 0xD1CE):
        for attenuate in (False, True):
            for tol in (None, 1e-9):
                table = scaling_study(template, range(2, 7), seed=seed,
                                      attenuate=attenuate, tol=tol)
                assert table.rows == _all_groups_reference(
                    template, range(2, 7), seed, attenuate, tol), \
                    (seed, attenuate, tol)


def test_scaling_study_diagonalizes_only_the_rate_carrying_sizes(
        monkeypatch):
    # a spectrum of 3^N groups is the flip-pattern partition, with tol
    # given or not
    template = RegisterTemplate(lambda1=0.01, lambda2=0.01, g1=G1, g2=G2,
                                beta=0.5)
    calls = _spy_diagonalized(monkeypatch)
    eig_calls = []
    eig = np.linalg.eig

    def counted_eig(a):
        eig_calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    for tol in (None, 1e-9):
        for n in range(1, 7):
            calls.clear()
            eig_calls.clear()
            scaling_study(template, [n], seed=11, tol=tol)
            # the 2^N all-flipped groups and the e = 0 group, for each
            # channel in one pass
            assert sorted(calls) == [(1, 2 ** n), (1, 2 ** n),
                                     (2 ** n, 1), (2 ** n, 1)], (n, tol)
            # the conserving stacks are exactly diagonal, and so are the
            # size-1 ones: only the exchange channel's e = 0 group runs
            # eig
            assert eig_calls == [(1, 2 ** n, 2 ** n)], (n, tol)


def test_scaling_study_evaluates_every_group_otherwise(monkeypatch):
    # a spectrum of fewer than 3^N groups (the field merges flip
    # patterns) is not assumed to have any structure: every group is
    # diagonalized
    calls = _spy_diagonalized(monkeypatch)
    template = RegisterTemplate(lambda1=0.01, lambda2=0.01, g1=G1, g2=G2,
                                beta=0.5)
    flat = dataclasses.replace(template, b_interval=(0.5, 0.5 + 1e-14))
    with pytest.warns(UserWarning, match=r"N = 4 field has 9 groups, "
                      r"not one per flip pattern \(3\^4\)"):
        table = scaling_study(flat, [4], seed=11)
    spec = register_to_system(flat.realize(4, 11))
    groups = bohr_spectrum(spec)
    assert len(groups) == 9        # e depends on the flip count only
    assert sum(count for _, count in calls) == 2 * len(groups)
    assert {size for size, _ in calls} \
        == {len(pairs) for pairs in groups.values()}
    assert table.rows[0].gamma0 > 0.0


# =====================================================================
# One judge of group structure: the clustering
# =====================================================================

def _labels_disagree(rep, n):
    """True when the pairs of a RateReport do not share one (D, e0)."""
    return len({hamming_and_e0(*spin_configuration(pair, n))[:2]
                for pair in rep.pairs}) > 1


@pytest.mark.parametrize("B, n_merged", NEAR_RELATION_FIELDS)
def test_near_relation_fields_flag_merged_groups(monkeypatch, B, n_merged):
    # the generic check passes these fields, the clustering merges
    # their flip patterns: the rates are computed, merged groups flagged
    n = len(B)
    reg = make_register(n, B=np.array(B))
    assert generic_field_check(reg.B).passed
    with pytest.warns(UserWarning, match=rf"^{n_merged} of \d+ Bohr groups "
                      r"hold pairs with different \(D, e0\)"):
        reports = decoherence_rates(reg)
    assert [rep.merged for rep in reports] \
        == [_labels_disagree(rep, n) for rep in reports]
    assert sum(rep.merged for rep in reports) == n_merged

    # scaling_study on the same field evaluates every group
    monkeypatch.setattr(RegisterTemplate, "realize",
                        lambda self, n_qubits, seed, attenuate=False: reg)
    template = RegisterTemplate(lambda1=reg.lambda1, lambda2=reg.lambda2,
                                g1=G1, g2=G2, beta=reg.beta)
    with pytest.warns(UserWarning, match="not one per flip pattern"):
        row, = scaling_study(template, [n]).rows
    assert row.max_gamma_exchange \
        == max(rep.gamma_exchange for rep in reports)
    assert row.gamma0 \
        == next(rep.gamma_exchange for rep in reports if rep.e == 0.0)


def test_scaling_study_on_a_narrow_field_interval():
    # draws from [0.5, 0.5 + 1e-10] merge flip patterns at every size,
    # whether or not they pass the generic check; every group is
    # evaluated, and the rows agree with decoherence_rates'
    template = RegisterTemplate(lambda1=0.01, lambda2=0.01, g1=G1, g2=G2,
                                beta=0.5, b_interval=NARROW_B_INTERVAL)
    with pytest.warns(UserWarning, match="not one per flip pattern"):
        table = scaling_study(template, range(2, 5), seed=0xD1CE)
    assert generic_field_check(template.realize(2, 0xD1CE).B).passed
    for row in table.rows:
        n = row.n_qubits
        with pytest.warns(UserWarning, match="hold pairs with different"):
            reports = decoherence_rates(template.realize(n, 0xD1CE))
        assert [rep.merged for rep in reports] \
            == [_labels_disagree(rep, n) for rep in reports]
        assert row.max_gamma_conserving \
            == max(rep.gamma_conserving for rep in reports)
        assert row.max_gamma_exchange \
            == max(rep.gamma_exchange for rep in reports)
        assert row.gamma0 \
            == next(rep.gamma_exchange for rep in reports if rep.e == 0.0)


def test_pipeline_does_not_consult_the_generic_field_check(monkeypatch):
    import resodec.register as register

    def no_scan(*args, **kwargs):
        pytest.fail("a pipeline function ran the generic-field scan")

    monkeypatch.setattr(register, "generic_field_check", no_scan)
    template = RegisterTemplate(lambda1=0.01, lambda2=0.01, g1=G1, g2=G2,
                                beta=0.5)
    scaling_study(template, [2, 3])
    scaling_study(template, [2, 3], tol=1e-9)
    decoherence_rates(make_register(3))
    with pytest.warns(UserWarning):
        decoherence_rates(make_register(2, B=np.array([0.5, 0.5])))
        scaling_study(dataclasses.replace(
            template, b_interval=NARROW_B_INTERVAL), [2])
