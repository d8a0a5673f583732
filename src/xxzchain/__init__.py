"""Exact diagonalization of open XXZ chains, pairwise concurrence, and
long-distance boundary-entanglement channel design.

The package namespace holds the chain spec, channel design, the dense
full-space path and the error types; everything else, the sweeps included,
is imported from its submodule (``xxzchain.sweep``, ...)."""

from .chain import ChainSpec
from .channel import design_channel
from .closed_forms import c1n_channel
from .eigensolver import decompose
from .entanglement import concurrence, ground_state_density, reduce_pair_mixed
from .errors import DomainError, NumericError, ResourceCapError
from .hamiltonian import build_full
from .sweep import design_report

__version__ = "0.1.0"
