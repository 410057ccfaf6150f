"""Exception types shared across the package."""


class CoxabacusError(Exception):
    """Base class for all validation errors raised by this package."""


class RankTooSmall(CoxabacusError):
    """Rank below the minimum supported for the chosen family."""


class ResidueClash(CoxabacusError):
    """Two window entries share the same residue mod N."""


class ZeroResidue(CoxabacusError):
    """A window entry is divisible by N."""


class BalanceViolation(CoxabacusError):
    """Window entries fail w(i) + w(N-i) = N."""


class NotMinimal(CoxabacusError):
    """Operation requires a minimal-length coset representative."""


class ParityViolation(CoxabacusError):
    """Object fails the evenness condition of its family."""


class UnknownGenerator(CoxabacusError):
    """A letter outside the generator alphabet 0..n."""


class NotACore(CoxabacusError):
    """Partition has a hook length divisible by 2n."""


class NotSymmetric(CoxabacusError):
    """Partition is not equal to its transpose."""


class BadRequest(CoxabacusError):
    """A request outside what a command answers: a negative length bound, an
    unknown family or representation, a window entry too long to print, or
    a Bruhat comparison across two groups."""


class MalformedText(CoxabacusError):
    """Input that does not read as integers: text that is not a list of
    integers, or a value that is not an int."""


class MalformedBounded(CoxabacusError):
    """Bounded partition violates its structural constraints."""


class StuckPeel(CoxabacusError):
    """Central peeling could not remove any box (invalid input)."""


class NotEnumerated(CoxabacusError):
    """Element missing from the oracle's length table."""


class UnrenderableCombination(CoxabacusError):
    """Unknown drawing format: the peel trace is drawn as text or svg."""
