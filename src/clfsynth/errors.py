"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, failed certificates with 3, numerical divergence with 4.
"""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


class CertificateError(RuntimeError):
    """A numerical certificate could not be established."""


class BaseLevelError(CertificateError):
    """The unscaled base inequality fails below the chosen base level."""


class ArtsteinViolationError(CertificateError):
    """Sampled decrease condition failed; carries the violating states."""

    def __init__(self, message, violations):
        super().__init__(message)
        self.violations = list(violations)


class DivergenceError(RuntimeError):
    """Simulation left the finite range or exhausted its horizon."""

    def __init__(self, message, last_state=None, last_time=None):
        super().__init__(message)
        self.last_state = last_state
        self.last_time = last_time
