"""Exception hierarchy shared across the toolkit."""


class SupportgenError(Exception):
    """Base class for all toolkit errors."""


class CapacityError(SupportgenError):
    """More objects requested than the grid can hold."""


class ExecutionError(SupportgenError):
    """An action sequence cannot be executed from its source state."""


class DimensionError(SupportgenError):
    """Operands have incompatible shapes or grid sizes."""


class LexicalError(SupportgenError):
    """A token is not part of the instruction vocabulary."""


class GrammarError(SupportgenError):
    """Token sequence violates the instruction grammar."""


class UnresolvableError(SupportgenError):
    """Instruction does not refer to any object in the given state."""


class PlannerError(SupportgenError):
    """Internal planner invariant violated."""


class MappingError(SupportgenError):
    """Symbol outside the domain of a permutation."""


class FitError(SupportgenError):
    """A model or encoder cannot be fit on the given data."""


class EncodingError(SupportgenError):
    """Vector encoding failed (zero norm, bad input)."""


class QueryError(SupportgenError):
    """Invalid index query parameters."""


class RetrievalError(SupportgenError):
    """Retrieval requested against an empty or unusable index."""


class GenerationError(SupportgenError):
    """Dataset generation could not satisfy the request."""


class DataFormatError(SupportgenError):
    """A serialized record is malformed."""


class PatternError(SupportgenError):
    """Malformed action-pattern expression."""


class MetricError(SupportgenError):
    """A metric is undefined for the given input."""


class SolverError(SupportgenError):
    """A solver found no actions for a (state, instruction) pair: the
    support is unsolvable."""


class ParaphraseError(SupportgenError):
    """Paraphrase response could not be parsed."""


class ExternalServiceError(SupportgenError):
    """An external process or endpoint failed; the command cannot finish."""


class ProtocolError(ExternalServiceError):
    """External solver violated the line protocol or stopped running."""


class SolverTimeout(ExternalServiceError):
    """External solver did not answer within the deadline."""
