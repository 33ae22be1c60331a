"""Exception types shared across the package.

The errors defined here derive from :class:`DeflatorError`.  An invalid
value handed to a constructor or a check (a market, algebra, panel,
curve, schedule or model parameter, a verdict tolerance, or a
cdf_from_charfn grid or smoothing) raises ValueError instead, so
callers at API boundaries catch both; the command line tool maps both
onto its input-error exit code.
"""


class DeflatorError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DeflatorError):
    """Array shapes do not line up (prices vs payoff columns, etc.)."""


class NonConvergence(DeflatorError):
    """An iterative solver hit its iteration cap before converging."""


class ZeroCost(DeflatorError):
    """A return was requested for a position with (near) zero cost."""


class SingularGram(DeflatorError):
    """The hedge Gram matrix is singular: instruments are collinear
    under the pricing measure."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class AlgebraMismatch(DeflatorError):
    """Two objects that must share an algebra do not."""


class NotCoarser(DeflatorError):
    """Restriction target is not a coarsening of the source algebra."""


class NotClosedOut(DeflatorError):
    """A trading strategy does not end with a zero position."""


class NotSelfFinancing(DeflatorError):
    """An interior account entry is nonzero for a strategy that was
    required to be self-financing."""

    def __init__(self, message, time=None, block=None):
        super().__init__(message)
        self.time = time
        self.block = block


class DeflatorZeroBlock(DeflatorError):
    """Division by a deflator that vanishes on some block."""


class NonpositiveRate(DeflatorError):
    """A gross one-period rate is zero or negative."""


class MissingMaturity(DeflatorError):
    """A discount curve has no entry at a requested maturity."""


class NonPredictableDeflator(DeflatorError):
    """Deflators carry no mass where the futures projection needs to
    renormalize, so the martingale construction is invalid."""


class InvalidInterval(DeflatorError):
    """A time interval with end before start."""


class TruncationFailure(DeflatorError):
    """A characteristic function does not decay below the truncation
    threshold within the search cap."""


class ArbitrageInInput(DeflatorError):
    """A pricing request was made against a market that admits
    arbitrage, so no deflator exists to price with."""


class SpecFileError(DeflatorError):
    """A market specification file is unreadable, malformed, or fails
    schema validation (missing fields, NaN/inf, bad partitions)."""
