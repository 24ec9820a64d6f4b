"""Shared exception types.

The analytic solver and the sampler raise them, and the CLI exits 3 on each;
the finite-difference oracle imports none of them and raises only ValueError.
"""


class ConvergenceError(RuntimeError):
    """An iteration cap was reached, or a result missed its convergence criterion."""


class BracketError(RuntimeError):
    """A sign change that should isolate a root could not be found."""


class InsufficientDomainError(ValueError):
    """A grid is too narrow for the function on it to have decayed, or too coarse to resolve it."""
