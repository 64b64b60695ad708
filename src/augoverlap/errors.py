"""Shared exception types."""


class ParseError(ValueError):
    """A data file violates its format; message carries the line number."""


class DegenerateInputError(ValueError):
    """An input is structurally valid but degenerate (zero row, empty class, ...)."""


class UndefinedMetricError(ValueError):
    """A metric is mathematically undefined for this input (e.g. division by zero)."""


class PowerIterationError(RuntimeError):
    """Eigenvalue iteration failed to converge; message carries the residual.

    No library function raises it (spectra come from ``numpy.linalg.eigh``);
    it stays importable for code that catches it."""


class TrainingDivergenceError(RuntimeError):
    """Training produced a non-finite loss; message carries the step index."""
