"""Exception types shared across the package."""


class EqmapError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidParameterError(EqmapError, ValueError):
    """An input parameter lies outside its domain; the message names it."""


class NoOneCutSolutionError(EqmapError):
    """Endpoint continuation exhausted its budget without reaching the target.

    When the continuation stopped at a located fold of the one-cut branch,
    ``s_star`` is the homotopy parameter of the fold and ``t_star`` the
    coefficients ``{j: s_star * t_j}`` there; both are None otherwise.
    """

    def __init__(self, message, s_star=None, t_star=None):
        super().__init__(message)
        self.s_star = s_star
        self.t_star = t_star


class DegeneratePotentialError(EqmapError):
    """The endpoint system is singular at the continuation base point."""


class DegeneratePointError(EqmapError):
    """A formula prefactor vanished at the evaluation point."""


class OutsideOneCutError(EqmapError):
    """A log argument that must be positive in the one-cut regime was not."""


class SingularJetError(EqmapError):
    """Jet division or log applied to an inadmissible constant term."""


class ContourGeometryError(EqmapError):
    """Evaluation point placed on the wrong side of a quadrature contour."""


class CensusSizeError(EqmapError):
    """Half-edge count exceeds the brute-force enumeration bound."""
