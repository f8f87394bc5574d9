"""clutterlab: exact certification of polyhedral properties of clutters.

Everything runs over arbitrary-precision rationals: double description for
polyhedra, Hilbert bases of rational cones, lattice-point counting series,
monomial ideal power comparisons, and total dual integrality certificates,
with a CLI that emits byte-stable JSON certificates.
"""

from .combinat import Clutter, RawClutter, SimpleGraph
from .errors import ResourceExceeded, Undecided, UsageError
from .ideals import MonomialIdeal
from .lattice import ConeWithLattice, HilbertBasisReport, hilbert_basis, is_hilbert_basis
from .polyhedron import Face, HRep, VRep, dd_convert
from .tdi import LinearSystem, TdiCertificate

__all__ = [
    "Clutter",
    "RawClutter",
    "SimpleGraph",
    "MonomialIdeal",
    "ConeWithLattice",
    "HilbertBasisReport",
    "LinearSystem",
    "TdiCertificate",
    "HRep",
    "VRep",
    "Face",
    "dd_convert",
    "hilbert_basis",
    "is_hilbert_basis",
    "UsageError",
    "Undecided",
    "ResourceExceeded",
]

__version__ = "0.1.0"
