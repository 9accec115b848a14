"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid model parameter, state, or configuration value."""


class ErgodicityError(ValueError):
    """Rate matrix does not define a single-class ergodic mode chain."""


class NumericsError(RuntimeError):
    """A numerical routine produced a non-finite or inconsistent result."""


class CertificateError(RuntimeError):
    """A drift certificate could not be validated (non-negative drift)."""


class WitnessError(RuntimeError):
    """Analytic witness construction and the fallback search both failed."""
