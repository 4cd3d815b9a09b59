"""Numerics for conical densities and rectifiability diagnostics on
weighted point clouds."""

from .corona import CoronaParams, CoronaResult, TreeResult, build_top, verify_corona
from .diagnostics import BetaResult, beta2, beta_square_function
from .energy import EnergySpec, pointwise_energies
from .generators import GeneratorSpec, generate
from .geometry import Plane, make_plane, sample_grassmannian
from .graphs import LipschitzGraph
from .lattice import Cube, Lattice, build_lattice, maximal_doubling
from .measure import DiscreteMeasure, load_csv, save_csv
from .sio import Kernel, TruncationGrid, builtin_kernels, maximal_transform

__version__ = "0.1.0"
