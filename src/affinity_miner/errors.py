"""Exception types raised across the toolkit: one class per failure meaning.

Each carries only its message, which names the input line or config key at fault.
"""


class AffinityMinerError(Exception):
    """Base class for all domain errors; CLI maps these to exit code 1."""


class InvalidType(AffinityMinerError):
    """String is not one of the 16 personality type codes."""


class MalformedRecord(AffinityMinerError):
    """A fault in an input file: a bad line, or no usable line at all."""


class NonErgodic(AffinityMinerError):
    """Stationary distribution does not exist or could not be computed."""


class UnknownNode(AffinityMinerError):
    """Clustering references a node absent from the graph."""


class DimensionMismatch(AffinityMinerError):
    """Argument sizes or shapes disagree."""


class InsufficientData(AffinityMinerError):
    """Too few documents, classes, nodes, edges, points or labels."""


class InvalidSpec(AffinityMinerError):
    """A parameter is outside its range."""


class ConfigError(AffinityMinerError):
    """Invalid pipeline configuration or command-line settings."""
