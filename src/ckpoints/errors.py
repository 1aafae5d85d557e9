"""Exception types shared across the package."""


class CkError(Exception):
    """Base class for all package errors."""


class PrecisionExhausted(CkError):
    """A result cannot be certified at the available p-adic precision."""


class InternalInvariant(CkError):
    """A check that holds for every valid input failed: a bug, not a precision shortfall."""


class NotASquare(CkError):
    """The seed squared does not match the target residue mod p."""


class ZeroSeed(CkError):
    """A Hensel square-root seed vanishes mod p."""


class NotSimpleRoot(CkError):
    """The derivative vanishes mod p at the proposed root residue."""


class NotMonic(CkError):
    """The model's leading coefficient is not 1."""


class EvenDegree(CkError):
    """The model does not have odd degree 2g+1."""


class SingularModel(CkError):
    """The defining polynomial is not squarefree."""


class BadReduction(CkError):
    """The curve does not have good reduction at the requested prime."""


class DifferentDiscs(CkError):
    """Tiny integrals require both endpoints in one residue disc."""


class WeierstrassDisc(CkError):
    """Teichmueller points only exist in non-Weierstrass residue discs."""


class PoleAtPoint(CkError):
    """A correction was evaluated at a pole: y = 0 under a negative y-power, or off Z_p."""


class SingularSystem(CkError):
    """The Frobenius linear system was singular; indicates an internal bug."""


class AllSeriesDegenerate(CkError):
    """No integral series has separable roots on a disc; escalate the prime."""


class ZeroBoundExceeded(CkError):
    """More zeros than Strassmann's or Coleman's bound allows (internal bug)."""


class RoundingAmbiguous(CkError):
    """A zeta coefficient is not determined uniquely at working precision."""


class NotTorsionConsistent(CkError):
    """A reduced divisor class order does not divide the group order (bug)."""


class LatticeReductionStalled(CkError):
    """LLL reduction did not finish within its round limit."""


class NonTorsionExtra(CkError):
    """A non-rational extra point is provably non-torsion: contradicts rank 0."""


class ParseError(CkError):
    """A curve file line could not be parsed."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number
