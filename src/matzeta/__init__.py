"""Exact-arithmetic topological zeta functions of matroids.

Matroids on small ground sets, their lattices of flats, characteristic
polynomials, topological zeta functions by several independent algorithms,
truncation/free-extension transfer formulas, and a verification harness over
a catalog of small matroids.  All arithmetic is exact.
"""

from .algebra import Polynomial, RationalFunction, taylor_prefix
from .checks import build_catalog, run_all_checks
from .files import FileFormatError, load_bases, load_graphic_matroid
from .lattice import DEFAULT_FLAG_CAP, FlagCapExceeded, LoopsError, lattice_of
from .matroid import MAX_GROUND_SIZE, Matroid, graphic, uniform
from .zeta import compute_upsilon, compute_zeta, upsilon_by_recurrence, zeta_by_recurrence

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_FLAG_CAP",
    "FileFormatError",
    "FlagCapExceeded",
    "LoopsError",
    "MAX_GROUND_SIZE",
    "Matroid",
    "Polynomial",
    "RationalFunction",
    "build_catalog",
    "compute_upsilon",
    "compute_zeta",
    "graphic",
    "lattice_of",
    "load_bases",
    "load_graphic_matroid",
    "run_all_checks",
    "taylor_prefix",
    "uniform",
    "upsilon_by_recurrence",
    "zeta_by_recurrence",
]
