"""Exception types shared across the package."""


class ParacohError(Exception):
    """Base class for all package-specific errors."""


class InvalidIndex(ParacohError):
    """Basis index outside the index set or truncation window."""


class ParamMismatch(ParacohError):
    """Operands built over different representation parameters."""


class AssumptionGateError(ParacohError):
    """A factor parameter lies in the punctured ball 0 < |nu| < eps0."""


class SpectralGapError(ParacohError):
    """A complementary factor exceeds the spectral-gap bound |nu| <= nu0."""


class NotInKernel(ParacohError):
    """Input fails the invariant-functional precondition; obstruction detected."""

    def __init__(self, msg, defect=None, tag=None):
        super().__init__(msg)
        self.defect = defect
        self.tag = tag


class NoConvergence(ParacohError):
    """A solve's residual exceeds tol_residual * scale, or its band factor
    cannot be formed."""


class NotClosed(ParacohError):
    """Leafwise form is not closed to within tolerance."""


class ThetaNotVanishing(ParacohError):
    """Degenerate-branch invariant remainder failed to vanish."""


class TailNotConverged(ParacohError):
    """Truncation tail bound is divergent or exceeds the head budget."""


class SchemaError(ParacohError):
    """Serialized document violates the file schema."""


class ConfigError(ParacohError):
    """Experiment configuration is invalid."""
