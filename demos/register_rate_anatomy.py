"""Walkthrough: where each register decay rate comes from.

A four-qubit register couples collectively to two reservoirs: a
conserving channel that reads out the total weighted magnetization,
and an exchange channel that flips spins against resonant bath modes.
Every Bohr group carries two combinatorial labels -- the Hamming
distance d between the bra and ket configurations and the
magnetization imbalance e0 -- and together they decide which channel
contributes to the group's decay rate.  This script prints the rate
decomposition class by class and then rebuilds the per-channel pieces
from the reservoir integrals: the conserving part is quadratic in e0,
and the exchange part is a sum of flip rates over the mismatched
positions.
"""

from pathlib import Path

import numpy as np

from resodec.config import load_config, register_from_config
from resodec.model import spin_configuration
from resodec.register import decoherence_rates
from resodec.reservoir import thermal_spectral_density, xi

CONFIG = Path(__file__).parent / "configs" / "reg4.json"


def main() -> None:
    cfg = load_config(CONFIG)
    reg = register_from_config(cfg)
    print(f"register: {reg.n_qubits} qubits, beta = {reg.beta}")
    print("local fields:", np.round(reg.B, 6))

    reports = decoherence_rates(reg)
    print(f"{len(reports)} Bohr groups in total")

    # =================================================================
    # Channel decomposition, one row per (e0, d) class
    # =================================================================
    classes = {}
    for rep in reports:
        classes.setdefault((rep.e0, rep.hamming), []).append(rep)
    print("\n  e0   d   groups   gamma range          conserving  "
          "exchange   cross")
    for (e0, d), members in sorted(classes.items()):
        lo = min(r.gamma for r in members)
        hi = max(r.gamma for r in members)
        rep = members[0]
        print(f"  {e0:+d}   {d}   {len(members):4d}   "
              f"[{lo:.2e}, {hi:.2e}]   {rep.gamma_conserving:.2e}   "
              f"{rep.gamma_exchange:.2e}   {rep.gamma_cross:+.1e}")

    # =================================================================
    # Conserving channel: rate is quadratic in the imbalance e0
    # =================================================================
    # With this form factor the conserving weight at zero frequency is
    # finite, and each group decays at  lam1^2 (pi/2) D1(0) e0^2.
    d1_zero = thermal_spectral_density(reg.g1, reg.beta, 0.0)
    unit = reg.lambda1 ** 2 * (np.pi / 2) * d1_zero
    worst = max(abs(rep.gamma_conserving - unit * rep.e0 ** 2)
                for rep in reports)
    print(f"\nconserving channel: gamma_cons = lam1^2 (pi/2) D1(0) e0^2")
    print(f"  unit rate lam1^2 (pi/2) D1(0) = {unit:.6e}")
    print(f"  worst deviation from the law over all groups: {worst:.2e}")

    # =================================================================
    # Exchange channel: one flip rate per mismatched position
    # =================================================================
    # Each position where the two configurations disagree contributes
    # lam2^2 (pi/2) xi2(2 B_j); positions that agree contribute nothing.
    print("\nexchange channel: sum of per-position flip rates")
    for rep in reports[:4]:
        sigma, tau = spin_configuration(rep.pairs[0], reg.n_qubits)
        flipped = [j for j in range(reg.n_qubits) if sigma[j] != tau[j]]
        total = sum(reg.lambda2 ** 2 * (np.pi / 2)
                    * xi(reg.g2, reg.beta, 2.0 * reg.B[j])
                    for j in flipped)
        print(f"  e = {rep.e:+.4f}  (d = {rep.hamming}, positions "
              f"{flipped}):  sum = {total:.6e}  vs  "
              f"gamma_exch = {rep.gamma_exchange:.6e}")

    # =================================================================
    # Takeaway
    # =================================================================
    slowest = min(reports, key=lambda r: r.gamma if r.gamma > 0 else np.inf)
    print(f"\nslowest decaying group: e = {slowest.e:+.4f} with "
          f"gamma = {slowest.gamma:.3e}")
    print("the conserving channel is blind to every e0 = 0 class, and "
          "the flip-rate\nsum is the whole exchange story for "
          "off-diagonal groups; the lone diagonal\ngroup (d = 0) "
          "instead thermalizes through exchange-driven population\n"
          "relaxation, so with both channels on every group decays.")


if __name__ == "__main__":
    main()
