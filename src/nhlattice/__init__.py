"""Simulation toolkit for 1D waveguide lattices with patterned dissipation."""

__version__ = "0.1.0"

from .lattice import (
    LatticeSpec,
    LossPattern,
    bloch_hamiltonian,
    cell_diagonal,
    chain_matrix,
    interface_lattice,
    real_space_hamiltonian,
)
from .spectral import (
    ComplexSpectrum,
    EPSweepResult,
    ZeroModeReport,
    eig_full,
    ep_sweep,
    find_zero_modes,
)
from .topology import WindingResult, winding_number, winding_phase_diagram
from .symmetry import SymmetryReport, build_HDP, check_symmetries
from .propagation import Excitation, FieldEvolution, propagate
from .analysis import (
    DecayFit,
    InterfaceComparison,
    MomentumSpectrum,
    OscillationFit,
    fit_decay,
    fit_oscillation,
    interface_vs_defect,
    momentum_spectrum,
)
from .calibration import CalibrationCurve, fit_curve, g2_of

__all__ = [
    "__version__",
    "LatticeSpec",
    "LossPattern",
    "bloch_hamiltonian",
    "cell_diagonal",
    "chain_matrix",
    "interface_lattice",
    "real_space_hamiltonian",
    "ComplexSpectrum",
    "EPSweepResult",
    "ZeroModeReport",
    "eig_full",
    "ep_sweep",
    "find_zero_modes",
    "WindingResult",
    "winding_number",
    "winding_phase_diagram",
    "SymmetryReport",
    "build_HDP",
    "check_symmetries",
    "Excitation",
    "FieldEvolution",
    "propagate",
    "DecayFit",
    "InterfaceComparison",
    "MomentumSpectrum",
    "OscillationFit",
    "fit_decay",
    "fit_oscillation",
    "interface_vs_defect",
    "momentum_spectrum",
    "CalibrationCurve",
    "fit_curve",
    "g2_of",
]
