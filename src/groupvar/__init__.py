"""Discrete variational problems with group-valued constraints on cellular complexes."""

from . import complexes, core, harmonic, liegroup, reduction, serialization
from .complexes import (
    CellComplex,
    FaceSet,
    TriangulatedGrid,
    VertexClass,
    classify_vertices,
    triangulated_grid,
)
from .core import (
    ConstraintMap,
    FiberSignature,
    LagrangianDensity,
    Multiplier,
    Section,
    Variation,
)
from .reduction import UnreducedField

__version__ = "0.1.0"
