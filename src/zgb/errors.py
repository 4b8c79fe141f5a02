"""Exception types shared across the package."""


class ZgbError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ZgbError, ValueError):
    """Argument outside the validated domain of an operation."""


class ConvergenceError(ZgbError, RuntimeError):
    """An iterative method failed to converge within its iteration budget."""


class CoverageError(ZgbError, ValueError):
    """Query beyond a table's audited coverage, or tables with disjoint coverage."""


class TableFormatError(ZgbError, ValueError):
    """Malformed zero-table file.  Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AuditError(ZgbError, RuntimeError):
    """Completeness audit failed.  Carries the audit report when available."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class CountMismatch(ZgbError, RuntimeError):
    """A table counts other than Turing's N at T, by an ordinate beyond its abs_err of T."""

    def __init__(self, T: float, N: int, table_N: int):
        self.T, self.N, self.table_N = T, N, table_N
        super().__init__(f"the table counts {table_N} ordinates up to T={T}, "
                         f"Turing's method certifies {N}")


class ValidationError(ZgbError, RuntimeError):
    """Cross-validation between two zero tables failed fatally."""
