"""Exception hierarchy.

Two broad families matter to callers (and to the CLI exit codes): input that
is malformed before any math runs (:class:`InputError`, exit code 1) and
computations that fail on valid-looking input (:class:`SolverError`, exit
code 2).
"""


class ScalePoseError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ScalePoseError):
    """Malformed or inconsistent input data (files, schemas, shapes)."""


class SolverError(ScalePoseError):
    """A numerical routine could not produce a valid result."""


# -- geometry ---------------------------------------------------------------

class NonPositiveDepth(SolverError):
    """Point at or behind the camera plane where positive depth is required."""


class NonUnitAxis(InputError):
    """Symmetry axis does not have unit norm."""


class DegenerateConfiguration(SolverError):
    """Point set too degenerate for alignment (covariance rank < 2)."""


# -- pnp --------------------------------------------------------------------

class DegenerateSample(SolverError):
    """Minimal sample unusable (e.g. collinear 3D triple)."""


class NoRealSolution(SolverError):
    """Minimal solver produced no geometrically valid candidate."""


class RankDeficient(SolverError):
    """Design matrix rank too low for a unique linear solution."""


class DivergedBehindCamera(SolverError):
    """Refinement lost all points to non-positive depth."""


class InsufficientCorrespondences(SolverError):
    """Fewer correspondences than the solver's minimal sample size."""


class ConsensusNotFound(SolverError):
    """RANSAC found no hypothesis with enough inliers."""


# -- nocs / scale -----------------------------------------------------------

class DimensionMismatch(InputError):
    """Operands have incompatible shapes."""


class RowNotStochastic(InputError):
    """Correspondence matrix row does not sum to one within tolerance."""


class DegenerateExtent(SolverError):
    """Point cloud extent too small to normalize."""


class NonPositiveScale(InputError):
    """Scale value that must be positive is not."""


class NonPositiveResult(SolverError):
    """Scale recovery produced a non-positive metric scale."""


class EmptyList(InputError):
    """Empty input where at least one element is required."""


# -- eval -------------------------------------------------------------------

class EmptyRecordSet(InputError):
    """Evaluation requested on an empty record set."""


# -- synth ------------------------------------------------------------------

class UnknownCategory(InputError):
    """Category name outside the supported set."""


class PlacementFailed(SolverError):
    """Scene sampling could not place the object after bounded attempts."""
