"""Exception types shared across the package.

Contract violations (bad argument shapes, empty inputs where content is
required) raise plain ValueError; the classes below mark conditions a
caller may want to branch on, e.g. for CLI exit codes.
"""


class DcqaoaError(Exception):
    """Base class for solver-specific failures."""


class EdgeListParseError(DcqaoaError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class GraphValidationError(DcqaoaError):
    """Graph structure violates an invariant (self-loop, duplicate edge, ...)."""


class GenerationError(DcqaoaError):
    """Random graph generation exhausted its retry budget."""


class SizeLimitError(DcqaoaError):
    """Instance exceeds a configured exhaustive/qubit limit."""


class ConnectivityExceededError(DcqaoaError):
    """No node set smaller than the qubit budget disconnects the graph."""

    def __init__(self, k: int, n_nodes: int):
        self.k = k
        self.n_nodes = n_nodes
        super().__init__(
            f"graph with {n_nodes} nodes has connectivity at or above k={k}; "
            f"no set of fewer than {k} nodes disconnects it"
        )
