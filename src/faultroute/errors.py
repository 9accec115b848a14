"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid model parameter, state, or configuration value."""


class ErgodicityError(ValueError):
    """Rate matrix does not define a single-class ergodic mode chain."""


class NumericsError(RuntimeError):
    """A numerical routine produced a non-finite or inconsistent result."""


class CertificateError(RuntimeError):
    """A drift certificate could not be validated (non-negative drift)."""


class MonotonicityError(RuntimeError):
    """The necessary test flipped more than once over the demands its bisection probes first."""

    def __init__(self, message: str, eta_pair: tuple[float, float]):
        super().__init__(message)
        self.eta_pair = eta_pair


class WitnessError(RuntimeError):
    """Analytic witness construction and the fallback search both failed."""
