"""Walkthrough: how decoherence rates grow with register size.

Registers of N = 2..6 qubits are drawn from a common template (same
channel strengths, same reservoirs, local fields sampled from one
interval with a fixed seed) and their extreme decay rates are compared
across sizes.  Two clean power laws emerge: the fastest conserving
rate grows like N^2, because the most imbalanced configuration pair
has e0 = 2N and the rate is quadratic in e0; the fastest exchange rate
grows like N, one flip rate per mismatched position.  The
thermalization rate of the diagonal group, by contrast, stays flat --
it is set by the slowest single-spin flip, not by the register size.
"""

from pathlib import Path

import numpy as np

from resodec.config import load_config, scaling_from_config
from resodec.register import scaling_study

CONFIG = Path(__file__).parent / "configs" / "scaling.json"


def main() -> None:
    template, n_list = scaling_from_config(load_config(CONFIG))
    print(f"template: lam1 = {template.lambda1}, lam2 = "
          f"{template.lambda2}, beta = {template.beta}, fields drawn "
          f"from {template.b_interval}")
    print(f"register sizes: {n_list}")

    # =================================================================
    # One rate table per register size, same seed throughout
    # =================================================================
    table = scaling_study(template, n_list, seed=53710)
    print("\n   N   max conserving   max exchange     gamma0 "
          "(diagonal group)")
    for row in table.rows:
        print(f"   {row.n_qubits}   {row.max_gamma_conserving:.6e}   "
              f"{row.max_gamma_exchange:.6e}   {row.gamma0:.6e}")

    # =================================================================
    # Fitted growth exponents
    # =================================================================
    print(f"\nconserving-rate exponent: {table.conserving_exponent:.4f}"
          "   (quadratic: the extreme imbalance is e0 = 2N)")
    print(f"exchange-rate exponent:   {table.exchange_exponent:.4f}"
          "   (linear: one flip rate per position)")
    print(f"gamma0 spread across sizes: {table.gamma0_spread:.4f}"
          "   (flat: set by the slowest single flip)")

    # =================================================================
    # The same exponents by direct log-log fit, as a sanity check
    # =================================================================
    ns = np.array([row.n_qubits for row in table.rows], float)
    cons = np.array([row.max_gamma_conserving for row in table.rows])
    exch = np.array([row.max_gamma_exchange for row in table.rows])
    fit_c = np.polyfit(np.log(ns), np.log(cons), 1)[0]
    fit_x = np.polyfit(np.log(ns), np.log(exch), 1)[0]
    print(f"\nindependent log-log fits: conserving {fit_c:.4f}, "
          f"exchange {fit_x:.4f}")
    print("larger registers dephase faster in every channel that "
          "couples collectively,\nbut they thermalize no faster: "
          "size buys decoherence, not equilibration.")


if __name__ == "__main__":
    main()
