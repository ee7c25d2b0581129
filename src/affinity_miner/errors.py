"""Exception types raised across the toolkit: one class per failure meaning."""


class AffinityMinerError(Exception):
    """Base class for all domain errors; CLI maps these to exit code 1.

    `line` carries the 1-based input line number when one line is at fault.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class InvalidType(AffinityMinerError):
    """String is not one of the 16 personality type codes."""


class MalformedRecord(AffinityMinerError):
    """A fault in an input file: a bad line, or no usable line at all.

    `line` carries the 1-based line number for a single bad record;
    `line_errors` carries (line, message) pairs for aggregate failures.
    """

    def __init__(self, message, line=None, line_errors=None):
        super().__init__(message, line)
        self.line_errors = line_errors or []


class NonErgodic(AffinityMinerError):
    """Stationary distribution does not exist or could not be computed."""


class UnknownNode(AffinityMinerError):
    """Clustering references a node absent from the graph."""


class DimensionMismatch(AffinityMinerError):
    """Argument sizes or shapes disagree."""


class ConstantVector(AffinityMinerError):
    """A correlation or cosine is undefined for a constant or zero vector."""


class InsufficientData(AffinityMinerError):
    """Too few documents, classes, nodes, edges, points or labels."""


class InvalidSpec(AffinityMinerError):
    """A parameter is outside its range."""


class ConfigError(AffinityMinerError):
    """Invalid pipeline configuration; `key` names the offender, `line` its config-file line."""

    def __init__(self, message, key=None, line=None):
        super().__init__(message, line)
        self.key = key
