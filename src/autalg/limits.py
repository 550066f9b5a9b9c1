"""The default size cap and the two errors that say a construction
stopped, in a module with no numpy, so that the command line's parser and
its error handling load without the algebra."""

DEFAULT_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """A closure or product construction grew past the configured cap."""


class VerificationError(RuntimeError):
    """A construction failed its own built-in verification.

    Raising this signals an internal inconsistency, not bad user input.
    """
