"""Geometry of doubly twisted/warped product metrics and their quotients.

Modules
-------
chartkit    coordinate-chart tensor kernel (metrics, FD Christoffel/Riemann
            oracles, gradients, covariant hessians, exterior derivatives)
productgeo  doubly twisted products: assembly, closed-form connection and
            curvature, mean curvature data, structure classification
transport   curves; parallel and adapted translation, holonomy maps
quotient    quotient models: deck groups, leaf tracing, intersection counts,
            decomposition verdicts, the explicit twisted construction
cli         scenario runner emitting deterministic JSON/CSV reports
"""

__version__ = "0.1.0"

from .chartkit import (  # noqa: F401
    CoordPoint,
    MetricField,
    ScalarField,
    Signature,
    TangentVector,
)
from .productgeo import (  # noqa: F401
    DoublyTwistedProduct,
    FactorManifold,
    StructureClass,
    StructureTag,
    assemble,
    classify,
)
from .transport import (  # noqa: F401
    HolonomyMap,
    PiecewiseCurve,
    TransportResult,
)
from .quotient import (  # noqa: F401
    DeckGenerator,
    DecompositionVerdict,
    FactorMap,
    IntersectionReport,
    LeafTrace,
    QuotientModel,
    build_example1,
)
