"""Exception hierarchy.

Everything raised on bad input or misuse derives from KghopError so the
CLI can catch one type, print a diagnostic, and exit nonzero.
"""


class KghopError(Exception):
    """Base class for all kghop errors."""


def shown(value) -> str:
    """repr(value) for a message; an int beyond 64 bits by its size (str() refuses 4300+ digits)."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"<{value.bit_length()}-bit int>"
    return repr(value)


class ParseError(KghopError):
    """A text input line could not be parsed. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DimensionError(KghopError):
    """Vector length does not match the configured embedding dimension."""


class EmbeddingValueError(KghopError):
    """Embedding component is not a finite number."""


class DuplicateIdError(KghopError):
    """The same id was supplied twice where ids must be unique."""


class CompletenessError(KghopError):
    """Relation embeddings do not cover exactly 0..num_relations-1."""


class ArgumentError(KghopError):
    """Invalid argument to a library operation."""


class QueryError(KghopError):
    """A query references an unknown anchor, relation, or entity."""


class RelationRangeError(QueryError):
    """A relation id falls outside 0..num_relations-1."""


class CapacityError(KghopError):
    """A request exceeds what the machine can hold or start.

    A frontier capacity beyond what a 64-bit machine could hold, or a
    worker gang whose threads the OS would not all start.
    """


class BenchError(KghopError):
    """Benchmark harness misconfiguration or failed correctness cross-check."""
