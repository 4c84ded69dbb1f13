"""Exception hierarchy for warpquot.

Everything derives from GeometryError so callers can catch numeric/geometric
failures in one handler while input/usage errors stay on ValueError paths.
"""


class GeometryError(Exception):
    """Base class for geometric and numeric failures."""


class NumericsError(GeometryError):
    """Non-finite samples, asymmetric metric matrices, or similar data defects."""


class DegenerateMetric(GeometryError):
    """Metric matrix is singular (|det g| below threshold) at a queried point."""


class DegeneratePlane(GeometryError):
    """Tangent plane with vanishing Gram determinant; sectional curvature undefined."""


class CaseMismatch(GeometryError):
    """Vector slots do not match the requested connection case (HH/VV/HV)."""


class NormalizationError(GeometryError):
    """Closed-form curvature requires unitary, orthogonal inputs; got something else."""


class InvalidFrame(GeometryError):
    """Lightlike-curvature frame (xi, u) violates its normalization conditions."""


class InvalidWarp(GeometryError):
    """Warp function non-positive somewhere on the sampled domain box."""


class IntegrationError(GeometryError):
    """ODE integration failed, blew up, or left the declared domain."""


class NotInLeaf(GeometryError):
    """Curve claimed to lie in a leaf acquires transverse velocity components."""


class NotALoop(GeometryError):
    """Curve endpoints do not close (up to identification where applicable)."""


class InvalidAction(GeometryError):
    """Deck generator or group action violates a quotient-model condition."""


class WordBoundExceeded(GeometryError):
    """Point not reducible to the fundamental box by words within the bound."""


class InvalidH(GeometryError):
    """Gluing diffeomorphism for the twisted construction is not monotone."""


class ScenarioError(Exception):
    """Scenario file failed to parse or validate; message carries location info."""
