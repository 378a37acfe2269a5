"""Exception hierarchy shared across the package."""


class MeshError(Exception):
    """Base class for mesh construction and validation failures."""


class NonSimplePolygon(MeshError):
    pass


class NonConforming(MeshError):
    pass


class ZeroLengthEdge(MeshError):
    pass


class UnmarkedBoundaryEdge(MeshError):
    pass


class EmptyGamma0(MeshError):
    pass


class InvalidN(ValueError):
    pass


class DegenerateElement(MeshError):
    pass


class SolverError(Exception):
    """Base class for eigensolver failures."""


class NotSPD(SolverError):
    pass


class FactorizationOutOfMemory(SolverError):
    """The sparse LU of Ahat could not allocate its factors."""


class RankDeficientGamma0Mass(SolverError):
    pass


class KTooLarge(SolverError):
    pass


class AnalysisError(Exception):
    """Base class for convergence-study failures."""


class InsufficientLevels(AnalysisError):
    pass


class NonPositiveError(AnalysisError):
    pass


class FitDiverged(AnalysisError):
    pass
