"""Shared exception types.

Kept in one tiny module so the analytic solver and the finite-difference
oracle can report comparable failures without importing each other.
"""


class ConvergenceError(RuntimeError):
    """An iteration cap was reached, or a result missed its convergence criterion."""


class BracketError(RuntimeError):
    """A sign change that should isolate a root could not be found."""


class InsufficientDomainError(ValueError):
    """A grid is too narrow for the function on it to have decayed, or too coarse to resolve it."""
