"""Exception types shared across the package.

One class per contract violation so callers can catch precisely; messages
carry the offending name, index, or file location.
"""


class OodhgError(Exception):
    """Base class for all package errors."""


# graph construction and meta-path handling

class UnknownType(OodhgError):
    """A node or edge type name is not declared in the schema."""


class IndexOutOfRange(OodhgError):
    """A node index (an edge endpoint or a split id) exceeds the count of
    its node type."""


class DimensionMismatch(OodhgError):
    """A feature matrix does not match the declared (count, feature_dim)."""


class ValidationError(OodhgError):
    """Generic schema or file-content violation, with location context."""


class InvalidPath(OodhgError):
    """A meta-path hop has no declared edge type, or the path is malformed."""


class FeaturelessEndType(OodhgError):
    """Feature aggregation requested along a path ending at a featureless type."""


# sparse numeric kernels

class NegativeValue(OodhgError):
    """Row normalization applied to a matrix with negative entries."""


class ShapeMismatch(OodhgError):
    """Operand shapes are incompatible."""


class NotRowStochastic(OodhgError):
    """A matrix required to be row-stochastic fails the row-sum check."""


# energy scoring

class EmptyLogits(OodhgError):
    """Energy scores requested for a logit matrix with zero classes."""


class NotADistribution(OodhgError):
    """A probability matrix has rows that do not sum to one."""


class EmptyPathSet(OodhgError):
    """Energy fusion over an empty list of per-path vectors."""


class LengthMismatch(OodhgError):
    """Per-path energy vectors have different lengths."""


# training

class LabelOutOfRange(OodhgError):
    """A training label falls outside the class range of the head."""


class EmptyTrainSet(OodhgError):
    """Training requested with no training nodes."""


class OodLabelInTrainSet(OodhgError):
    """A train or validation node carries the held-out class label."""


class TrainingDiverged(OodhgError):
    """The training loss or a parameter became non-finite."""


# metrics

class DegenerateLabels(OodhgError):
    """A ranking metric needs both positives and negatives (or >=1 positive)."""


class EmptyPredictions(OodhgError):
    """A classification metric applied to zero predictions."""


class NonFiniteScore(OodhgError):
    """A detection score is NaN or infinite."""


# dataset io

class MissingFile(OodhgError):
    """A required dataset file is absent."""


class ParseError(OodhgError):
    """A dataset file could not be parsed, with file and line context."""


class OodClassMissing(OodhgError):
    """The designated held-out class does not occur in the labels."""


class FractionOverflow(OodhgError):
    """Split fractions cannot be satisfied by the available nodes."""
