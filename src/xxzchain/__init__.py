"""Exact diagonalization of open XXZ chains, pairwise concurrence, and
long-distance boundary-entanglement channel design.

The package namespace holds the quick-start entry points; everything else
is imported from its submodule (``xxzchain.sweep``, ``xxzchain.channel``,
...)."""

from .chain import ChainSpec
from .channel import design_channel
from .closed_forms import c1n_channel
from .eigensolver import decompose
from .entanglement import concurrence, ground_state_density, reduce_pair_mixed
from .errors import DomainError, NumericError, ResourceCapError
from .hamiltonian import build_full
from .sweep import design_report

__version__ = "0.1.0"
