"""Exception types shared across the package."""


class LpHeatError(Exception):
    """Base class for all package errors."""


class DomainError(LpHeatError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedOrderError(DomainError):
    """Requested derivative order exceeds the supported maximum."""


class MembershipError(DomainError):
    """The function does not belong to the requested Lebesgue space."""


class QuadratureAccuracyError(LpHeatError, RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best value obtained so far and the residual error estimate.
    """

    def __init__(self, message: str, value: float, residual: float):
        super().__init__(f"{message} (value={value!r}, residual={residual!r})")
        self.value = value
        self.residual = residual


class ApproximationError(LpHeatError, RuntimeError):
    """An iterative approximation hit its resource cap before the target."""

    def __init__(self, message: str, best_error: float):
        super().__init__(f"{message} (best achieved error {best_error!r})")
        self.best_error = best_error


class SearchFailureError(LpHeatError, RuntimeError):
    """A witness search exhausted its interval without finding one."""
