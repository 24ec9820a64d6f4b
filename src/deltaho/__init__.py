"""Spectrum and eigenfunctions of a harmonic oscillator with a delta spike at the origin."""

__version__ = "0.1.0"

from .errors import BracketError, ConvergenceError, InsufficientDomainError
from .spectrum import (
    EigenSolution,
    SolverConfig,
    bound_state_asymptote,
    eigen_equation,
    full_spectrum,
    solve_even,
    solve_odd,
)
from .wavefunction import (
    GridFunction,
    GridSpec,
    eval_even,
    eval_odd,
    jump_check,
    normalize,
    orthogonality,
    sample_state,
)
from .oracle import (
    OracleConfig,
    OracleSpectrum,
    Tridiagonal,
    build_hamiltonian,
    eigen_lowest,
)

__all__ = [
    "__version__",
    "BracketError",
    "ConvergenceError",
    "InsufficientDomainError",
    "EigenSolution",
    "SolverConfig",
    "bound_state_asymptote",
    "eigen_equation",
    "full_spectrum",
    "solve_even",
    "solve_odd",
    "GridFunction",
    "GridSpec",
    "eval_even",
    "eval_odd",
    "jump_check",
    "normalize",
    "orthogonality",
    "sample_state",
    "OracleConfig",
    "OracleSpectrum",
    "Tridiagonal",
    "build_hamiltonian",
    "eigen_lowest",
]
