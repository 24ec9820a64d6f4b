"""Spectrum and eigenfunctions of a harmonic oscillator with a delta spike at the origin.

The spectrum layer (Gamma factors, eigen condition, root solves and
their gate) is plain standard-library Python and is imported eagerly.
The finite-difference oracle (`oracle`), which only the cross-check
needs, and eigenfunction sampling and the origin-kink residual
(`wavefunction`), the one numpy-backed layer, load on first access of
one of their names (PEP 562), so `import deltaho` alone never imports
numpy or the oracle.
"""

import importlib

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

# public name -> submodule that defines it, imported on first access
_LAZY = {
    "oracle": "oracle",
    "OracleSpectrum": "oracle",
    "Tridiagonal": "oracle",
    "build_hamiltonian": "oracle",
    "eigen_lowest": "oracle",
    "wavefunction": "wavefunction",
    "GridFunction": "wavefunction",
    "eval_even": "wavefunction",
    "eval_odd": "wavefunction",
    "jump_check": "wavefunction",
    "normalize": "wavefunction",
    "orthogonality": "wavefunction",
    "sample_state": "wavefunction",
}


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


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
    "eval_even",
    "eval_odd",
    "jump_check",
    "normalize",
    "orthogonality",
    "sample_state",
    "OracleSpectrum",
    "Tridiagonal",
    "build_hamiltonian",
    "eigen_lowest",
]
