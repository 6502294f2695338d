"""Exception hierarchy shared by every module.

Two families matter to callers: ValidationError for inputs that violate a
documented precondition or file format, NumericError for conditions that
arise mid-computation (degenerate graphs, undefined quantities, overflow).
The CLI maps load-phase failures to exit 2 and compute-phase failures to 1.
"""

from __future__ import annotations


class PrismError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PrismError):
    """Input violates a documented invariant or format."""


class NumericError(PrismError):
    """A computation cannot proceed or produce a defined value."""


# graph-core

class DisconnectedGraph(NumericError):
    """Graph traversal reached fewer than n nodes; Fiedler vector undefined."""


class TooSmall(ValidationError):
    """Operation needs more nodes than the graph has."""


class NotSymmetric(ValidationError):
    """Matrix is not symmetric within tolerance."""


class NonFinite(ValidationError):
    """Matrix or objective contains NaN or infinity."""


class ParseError(ValidationError):
    """A serialized graph, operator, or CSV file failed to parse."""


# duality-core

class NotInvolution(ValidationError):
    """P squared differs from the identity beyond tolerance."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes."""


class ZeroMatrix(NumericError):
    """The defect of a (numerically) zero matrix is undefined."""


# benchmarks

class DegenerateGraph(NumericError):
    """Random generation failed to produce a usable (connected) graph."""


class ZeroEdges(NumericError):
    """Modularity is undefined for a graph with no edge weight."""


class LengthMismatch(ValidationError):
    """Label vectors have different lengths."""


class NonBinary(ValidationError):
    """Label vector contains values other than 0 and 1."""


# finance

class DuplicateDate(ValidationError):
    """Price file contains the same date twice."""


class NonPositivePrice(ValidationError):
    """Price file contains a zero or negative close."""


class EmptyPanel(ValidationError):
    """Too few rows to compute returns."""


class InsufficientHistory(NumericError):
    """Window extends before the first available return row."""


class DegenerateWindow(NumericError):
    """Fewer than two usable tickers in the window."""


class TooFewNodes(NumericError):
    """Component smaller than the requested community count."""
