"""Exception hierarchy for the qeswkb toolkit.

Every error raised by the library derives from :class:`QeswkbError`, and
additionally from :class:`ValueError` (bad inputs / unsupported parameter
regions) or :class:`RuntimeError` (iterative procedures that failed to
reach their target), so generic callers can catch the builtin types.
"""


class QeswkbError(Exception):
    """Base class for all toolkit errors."""


class DomainError(QeswkbError, ValueError):
    """Input outside the mathematical domain of an operation."""


class SeedError(QeswkbError, ValueError):
    """A factorization seed is non-positive or has a node in the domain."""


class UnsupportedParameterError(QeswkbError, ValueError):
    """Parameter combination with no implemented closed form."""


class MeshError(QeswkbError, ValueError):
    """Invalid mesh construction parameters."""


class NodePlacementError(MeshError):
    """The potential is not finite at one or more mesh nodes."""


class SpectrumExhaustedError(QeswkbError, ValueError):
    """More bound states requested than the potential supports."""


class ModelDomainError(QeswkbError, ValueError):
    """Fit-model evaluation outside the model's index domain."""


class RangeOverflowError(QeswkbError, ValueError):
    """Wavefunction evaluation outside the numerically safe range."""


class NoClassicalRegionError(QeswkbError, ValueError):
    """Energy below the potential minimum: no classical turning points."""


class MultiWellError(QeswkbError, ValueError):
    """Energy inside a multi-well (tunneling) range; out of scope."""


class AboveAsymptoteError(QeswkbError, ValueError):
    """Energy at or above the dissociation asymptote of the potential."""


class SearchError(QeswkbError, RuntimeError):
    """A bracketing or bisection search failed to locate its target."""


class AccuracyError(QeswkbError, RuntimeError):
    """Quadrature failed to reach the requested accuracy.

    The best achieved error estimate is stored in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ConvergenceError(QeswkbError, RuntimeError):
    """An iteration stopped before reaching its target: mesh refinement
    that stagnated above the tolerance, or a refit that ran out of
    evaluations.

    The best result so far, the spectrum or the refit's report, is stored
    in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
