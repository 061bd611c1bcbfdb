"""Exception taxonomy shared by all polarfact modules."""


class PolarfactError(Exception):
    """Base class for all toolkit errors."""


class NegativeWeightError(PolarfactError):
    """A point carries a weight <= 0."""


class DuplicateLabelError(PolarfactError):
    """Two points of one measure share a label."""


class DimensionMismatchError(PolarfactError):
    """Coordinate or value vectors disagree with the declared dimension."""


class UnequalMassError(PolarfactError):
    """Two measures that must balance have different total mass."""


class UnknownLabelError(PolarfactError):
    """An assignment refers to a label absent from its measure."""


class MarginalMismatchError(PolarfactError):
    """A plan's marginals do not line up with the measures given."""


class NumericalFailureError(PolarfactError):
    """A computed result failed its own check: a certificate (duality gap,
    inclusion, conjugate identity, equimeasurability) or the solver's
    pivoting safeguard."""


class OracleScopeExceededError(PolarfactError):
    """The permutation oracle was asked for a non-uniform or large instance."""


class SplitAtomError(PolarfactError):
    """A rearrangement target site was assigned more than one value atom."""


class UnknownHeavyAtomError(PolarfactError):
    """A heavy-value designation matched no atom of the value law."""


class MultiCarrierAtomError(PolarfactError):
    """A non-heavy atom has several carrier points, so an exact block
    construction is impossible; designate it heavy or reduce to the value law."""


class NotMeasurePreservingError(PolarfactError):
    """A map pushes the source measure to something other than the target."""


class InclusionNotCertifiedError(PolarfactError):
    """Optimality was queried for a plan whose inclusion certificate fails."""


class CertificateMissingError(PolarfactError):
    """A diagnostic requires a zero-duality-gap certificate that is absent."""


class UnknownGalleryNameError(PolarfactError):
    """Requested gallery instance name is not in the catalogue."""
