"""Exception types raised across the toolkit."""


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
    """Input line(s) failed validation.

    `line` carries the 1-based line number for a single bad record;
    `line_errors` carries (line, message) pairs for aggregate failures.
    """

    def __init__(self, message, line=None, line_errors=None):
        super().__init__(message, line)
        self.line_errors = line_errors or []


class NonPositiveSmoothing(AffinityMinerError):
    """Chain estimation requires smoothing strictly greater than zero."""


class NonErgodic(AffinityMinerError):
    """Stationary distribution does not exist or could not be computed."""


class EmptyGraph(AffinityMinerError):
    """Operation requires a graph with at least one node/edge."""


class KOutOfRange(AffinityMinerError):
    """Requested cluster count outside 1..n."""


class LengthMismatch(AffinityMinerError):
    """Paired vectors have different lengths."""


class UnknownNode(AffinityMinerError):
    """Clustering references a node absent from the graph."""


class MalformedPattern(AffinityMinerError):
    """Lexicon pattern is empty, has an interior wildcard, or is not one token."""


class DimensionMismatch(AffinityMinerError):
    """Vector or matrix dimensions disagree."""


class ConstantVector(AffinityMinerError):
    """Pearson correlation undefined for a constant vector."""


class DegenerateCorpus(AffinityMinerError):
    """Corpus has too few documents for regression."""


class EmptyCorpus(AffinityMinerError):
    """Corpus contains no documents."""


class SingleClass(AffinityMinerError):
    """Training requires at least two distinct labels."""


class InsufficientData(AffinityMinerError):
    """Not enough documents per class for the requested fold count."""


class EmptyFile(AffinityMinerError):
    """Input file contained no usable records."""


class ZeroVector(AffinityMinerError):
    """Cosine similarity undefined for a zero vector."""


class InvalidSpec(AffinityMinerError):
    """Synthetic-graph parameters are out of range."""


class ConfigError(AffinityMinerError):
    """Invalid pipeline configuration; `key` names the offender, `line` its config-file line."""

    def __init__(self, message, key=None, line=None):
        super().__init__(message, line)
        self.key = key
