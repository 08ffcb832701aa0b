"""Exception types shared across the package.

Exit-code mapping used by the CLI: usage errors are handled by argparse
(64), ParameterError/SourceError map to 65, BudgetExceeded to 66, and
everything else that aborts a run maps to 2.
"""
from __future__ import annotations


class MonoidLdpError(Exception):
    """Base class for all package errors."""


class ParameterError(MonoidLdpError):
    """Unsupported or inconsistent parameter (q, D, modulus, grid, ...)."""


class SourceError(MonoidLdpError):
    """A norm-sequence file is unreadable or ill-formed."""


class BudgetExceeded(MonoidLdpError):
    """A threshold or element count exceeds one of the package's fixed caps."""

    def __init__(self, message: str, predicted: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.predicted = predicted
        self.cap = cap


class DegenerateGrid(ParameterError):
    """Evaluation grid too small or not strictly increasing."""


class EmptySystem(MonoidLdpError):
    """No prime of norm <= X; a denominator would vanish."""


class EmptySample(MonoidLdpError):
    """No monoid element satisfies the sampling restriction."""


class PrimeNotInSystem(MonoidLdpError):
    """A norm names more primes than the system has of that norm up to X."""


class NoConvergence(MonoidLdpError):
    """Root solve hit the iteration cap; carries the last bracket."""

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket

