"""Three-qubit entanglement from two-mode squeezed light shared by two cavities.

Two atoms in one cavity and a single atom in a remote cavity couple
resonantly to injected squeezed light; tracing out the fields leaves a mixed
three-qubit state whose entanglement structure (free, bound and pairwise)
this package computes analytically and validates against brute-force
Hilbert-space evolution.
"""

from . import entanglement, fock_field, oracle, tavis_cummings
from .entanglement import *
from .fock_field import *
from .oracle import *
from .tavis_cummings import *

__version__ = "0.1.0"

__all__ = [
    *fock_field.__all__,
    *tavis_cummings.__all__,
    *entanglement.__all__,
    *oracle.__all__,
    "__version__",
]
