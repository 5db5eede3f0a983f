"""Exception types shared across the package."""


class GcpdError(Exception):
    """Base class for all package errors."""


class ConfigError(GcpdError, ValueError):
    """Invalid or inconsistent configuration (bad kind strings, unsupported combos)."""


class LossDomainError(GcpdError, ValueError):
    """A (x, m) pair outside the domain of the selected loss kind."""


class DataError(GcpdError, ValueError):
    """Malformed input data (bad file contents, inconsistent tensors/models)."""


class ParseError(DataError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where += f"{path}"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)


class StateError(GcpdError, RuntimeError):
    """Estimator or solver state used out of contract (factors that do not match it)."""


class DivergenceError(GcpdError, RuntimeError):
    """The objective blew up past the divergence guard; carries run context."""

    def __init__(self, message, iteration=None, value=None):
        self.iteration = iteration
        self.value = value
        super().__init__(message)
