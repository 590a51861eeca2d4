"""Exception hierarchy shared across the package.

Two broad classes matter to callers: usage errors (bad inputs, malformed
files, mismatched configuration) and data errors (a computation that is
well-formed but cannot produce a result).  The CLI maps them to distinct
exit codes.
"""


class CodeSurvivalError(Exception):
    """Base class for all package errors."""


class UsageError(CodeSurvivalError):
    """Bad inputs: missing files, malformed syntax, mismatched config."""


class DataError(CodeSurvivalError):
    """Well-formed inputs that cannot yield a result."""


class ManifestError(UsageError):
    """Manifest file missing, unparsable, or invalid."""


class MissingSourceError(ManifestError):
    """A version's snapshot source does not exist on disk."""


class StoreFormatError(UsageError):
    """Snapshot store file is malformed or has an unknown format version."""


class PlanError(UsageError):
    """Screening plan file is malformed or does not match the curve family."""


class TooFewPointsError(DataError):
    """Not enough points to evaluate a likelihood or run a fit."""


class NothingToFitError(DataError):
    """A screening plan removed every point from every regime."""
