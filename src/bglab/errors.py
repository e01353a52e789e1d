"""Exception types shared across the package."""


class BglabError(Exception):
    """Base class for all errors raised by bglab."""


class MissingTable(BglabError):
    """A validator or evaluator needed an operation table the algebra lacks."""


class MissingStar(MissingTable):
    """A term with inverse letters was evaluated in an algebra without star."""


class CarrierTooLarge(BglabError):
    """A construction would exceed its configured carrier budget."""


class UnsupportedSize(BglabError):
    """A group family parameter is outside the supported range."""


class NotAGroup(BglabError):
    """An operation required a group table and got something else."""


class NotASubgroup(BglabError):
    """The given element set is not a subgroup."""


class NormalSubgroup(BglabError):
    """subset_b needs a non-normal subgroup; the given one is normal."""


class NotAnIdeal(BglabError):
    """The given set is not a two-sided ideal; carries a witness.

    The witness is a pair (element, multiplier) whose product escapes the set.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ClosureBudgetExceeded(BglabError):
    """A generated closure grew past its element budget."""


class LengthBudgetExceeded(BglabError):
    """A word would flatten to more letters than the length budget allows."""


class SubgroupEnumerationBudget(BglabError):
    """Subgroup enumeration was requested for a group above the size budget."""


class MapNotTotal(BglabError):
    """A morphism map does not cover the whole source carrier."""


class TermSyntaxError(BglabError):
    """Parse failure in the identity DSL; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
