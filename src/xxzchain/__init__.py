"""Exact diagonalization of open XXZ chains, pairwise concurrence, and
long-distance boundary-entanglement channel design.

The package namespace holds the chain spec, channel design and the error
types; everything else, the sweeps and the dense full-space path included,
is imported from its submodule (``xxzchain.sweep``, ...)."""

from .chain import ChainSpec
from .channel import design_channel, design_report
from .closed_forms import c1n_channel
from .errors import DomainError, NumericError, ResourceCapError

__version__ = "0.1.0"
