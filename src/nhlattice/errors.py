"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid user input: bad lattice/pattern parameters or config files."""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class GaplessSpectrumError(NumericalError):
    """Band gap closed on the sampled grid; the invariant is undefined."""


class ModeTrackingError(NumericalError):
    """Eigenvector continuation between sweep points became ambiguous."""


class StepSizeError(NumericalError):
    """Integration step too large for the requested lattice."""


class FitError(NumericalError):
    """Curve fit rejected all data or failed to converge."""
