"""Exception types shared across the package."""


class CRFactorError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(CRFactorError):
    """Invalid model construction or lookup: bad variable, bad state index,
    scope mismatch, non-normalized distribution."""


class ModelParseError(ModelError):
    """Model file does not conform to the file format.

    Carries the 1-based line number of the offending line when one exists.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExprParseError(CRFactorError):
    """Expression text does not conform to the factor grammar."""


class UndefinedCRError(CRFactorError):
    """A co-occurrence rate or conditional probability is undefined:
    zero marginal in a denominator, zero-probability conditioning event,
    an empty block list, or a power that overflows."""


class RewriteError(CRFactorError):
    """A rewrite was applied to an invalid target or with invalid parameters."""


class CertificateError(RewriteError):
    """An independence certificate failed validation against the model."""


class PreconditionError(CRFactorError):
    """A structural precondition of an algorithm does not hold: cyclic graph,
    not a tree, clique graph not tree-reducible, Markov check failure."""
