"""resodec: resonance perturbation theory of decoherence.

Resonance energies and decay rates of N-level systems and qubit
registers weakly coupled to bosonic thermal reservoirs, second-order
reconstruction of the reduced density-matrix dynamics, and an exact
truncated-reservoir oracle for verification.

The package itself provides only ``__version__``; import everything
else from its submodule, whose ``__all__`` lists its public names.
"""

__version__ = "0.1.0"
