"""Exception hierarchy shared across the package.

Two branches: ConfigError for bad arguments, specs and pair definitions
(CLI exit code 2) and DataError for malformed or inconsistent input data
(CLI exit code 3).
"""


class BessArbError(Exception):
    """Base class for all package errors."""


class ConfigError(BessArbError):
    """Invalid configuration, argument or battery description."""


class DataError(BessArbError):
    """Invalid or inconsistent input data."""


# -- data ingestion ---------------------------------------------------------

class MalformedRow(DataError):
    """A CSV row failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.detail = message

    def __reduce__(self):
        # Exception pickles its args, the one formatted string; rebuild from both
        return type(self), (self.line, self.detail)


class NonMonotonicTimestamps(DataError):
    """Timestamps are not strictly increasing."""


class MissingPeriod(DataError):
    """A timestamp gap inside a trading window."""


class UnknownColumn(DataError):
    """Unexpected or duplicate CSV header column."""


class LevelOutOfRange(DataError):
    """Quantile level outside the open interval (0, 1)."""


class WindowMismatch(DataError):
    """Two series that must share a trading window do not."""


# -- battery ----------------------------------------------------------------

class RampViolation(BessArbError):
    """Order volume exceeds the per-period ramp limit."""


class CapacityViolation(BessArbError):
    """Charge would exceed battery capacity."""


class FloorViolation(BessArbError):
    """Charge would drop below the minimum allowed level."""


# -- strategies / evaluation ------------------------------------------------

class InvalidPair(ConfigError):
    """Quantile pair violates 0 < sell_level <= buy_level < 1."""


class LevelMissing(ConfigError):
    """Requested quantile level absent from the forecast."""


class NonCommensurateRamp(ConfigError):
    """Usable capacity is not an integer multiple of the ramp."""


# -- forecasting ------------------------------------------------------------

class EmptyTrainSet(ConfigError):
    """No training rows available."""


class KTooLarge(ConfigError):
    """k exceeds the number of training rows."""


class InsufficientHistory(ConfigError):
    """Not enough history for the requested walk-forward plan."""


# -- economics --------------------------------------------------------------

class ZeroSpan(ConfigError):
    """Annualization over an empty time span."""


class MissingRevenueSource(ConfigError):
    """No base revenue given and none derivable."""
