"""Exception hierarchy shared across the package."""


class LandscaperError(Exception):
    """Base class for all package errors."""


class IngestError(LandscaperError):
    """Malformed or inconsistent input data (CSV/JSON parsing, duplicates)."""


class DegenerateDataError(LandscaperError):
    """Data cannot support the requested quantity (e.g. all increments zero)."""


class PreconditionError(LandscaperError):
    """An operation's documented precondition was violated."""


class SamplerError(LandscaperError):
    """Sampler could not be initialized or produced unusable output."""


class SimulationDiverged(LandscaperError):
    """Numerical blow-up during SDE integration (non-finite or |x| > 1e6)."""

    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"trajectory diverged at step {step} (state {value!r})")


class ConvergenceWarning(UserWarning):
    """Diagnostics indicate the chains may not have converged."""
