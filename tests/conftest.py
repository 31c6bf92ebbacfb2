"""Shared test helpers."""

from pathlib import Path

import numpy as np

from resodec.model import CouplingTerm, FormFactor, SystemSpec, \
    build_system

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "demos" / "configs"

#: fields within 1e-10 of an integer relation, with their count of
#: merged Bohr groups: generic_field_check (threshold 1e-12 max|B|)
#: passes them, the default clustering (1e-9 times the level spread)
#: merges their flip patterns
NEAR_RELATION_FIELDS = [
    ([0.5, -0.4999999999], 3),
    ([0.5, 0.25000000003], 2),
    ([0.47, 0.51, 0.9800000002], 7),
]
#: a scaling b_interval whose draws merge flip patterns at every size
NARROW_B_INTERVAL = (0.5, 0.5000000001)


def single_qubit_spec(a, b, c, delta, g, beta, lam) -> SystemSpec:
    """The SystemSpec matching ``single_qubit_closed_form``'s arguments:
    energies (0, delta) and one channel of strength lam through the
    matrix [[a, c], [conj(c), b]] with form factor g."""
    matrix = np.array([[a, c], [np.conj(c), b]], dtype=complex)
    return SystemSpec(dim=2, energies=np.array([0.0, delta]),
                      couplings=[CouplingTerm(strength=lam, matrix=matrix,
                                              form_factor=g)],
                      beta=beta)


def sidon_spec(rng, n=20):
    """n levels on a Sidon set (a_k = 2pk + (k^2 mod p), p = 53): all
    n(n - 1) nonzero Bohr frequencies are distinct, so every group but
    e = 0 has one pair, coupled by two dense channels."""
    p = 53
    k = np.sort(rng.choice(p, size=n, replace=False))
    a = 2 * p * k + (k * k) % p
    couplings = []
    for ff in (FormFactor(radial_exponent=-0.5, decay_exponent=1),
               FormFactor(radial_exponent=0.5, decay_exponent=2,
                          overall_scale=2.0)):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        couplings.append((7e-4, (raw + raw.conj().T) / (2.0 * np.sqrt(n)),
                          ff))
    unit = 3.0 / (2.0 * p * p)
    return build_system(unit * (a - a.min()), couplings, beta=1.0)
