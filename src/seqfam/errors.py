"""Exception hierarchy shared across the package."""


class SeqfamError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SeqfamError):
    """Invalid or incompatible user-supplied parameters (CLI exit code 2)."""


class TableLimitError(ParameterError):
    """Requested field exceeds the configured log-table size cap."""


class ThreadStartError(SeqfamError):
    """A worker thread could not be started, as under a memory or process limit (CLI exit code 2)."""


class InternalCheckError(SeqfamError):
    """A built-in consistency identity failed; indicates a bug, never bad input."""
