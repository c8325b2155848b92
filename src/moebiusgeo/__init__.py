"""Metric Moebius geometry: cross-ratio triples, Ptolemy spaces, metric
inversions, and the classification of metric segments and circles."""

from .errors import NotPtolemyError, ValidationError
from .spaces import (
    CrossRatioTriple,
    ExtendedMetricSpace,
    PtolemyReport,
    circle_quadruple_census,
    crt,
    is_circle_quadruple,
    is_ptolemy,
    line_embed,
    space_from_json_dict,
    space_from_points,
    space_to_json_chunks,
    space_to_json_dict,
)
from .inversions import (
    EquivalenceReport,
    PointedCorrespondence,
    bound_at,
    crt_equivalent,
    invert_at,
)
from .segments import (
    QuadrantCurve,
    SegmentMap,
    WedgeRegion,
    angle_parameterize,
    curve_from_segment,
    ellipse_cos_beta,
    euclidean_segment_curve,
    ptolemy_identity_residual,
    segment_from_curve,
    segment_moebius_map,
    signed_distance,
    wedge_contains,
)
from .circles import (
    CircleMap,
    HalfplaneCurve,
    SectorRegion,
    chordal_circle_curve,
    circle_from_curve,
    circle_moebius_map,
    curve_from_circle,
    sector_contains,
)
from .spheres import (
    SampledCircle,
    chordal_metric,
    circumcircle_three,
    sample_space,
    stereographic,
)
from .glued import (
    BoundaryPoint,
    ExoticReport,
    GluedSpaceConfig,
    bourdon_metric,
    bulk_point,
    exotic_report,
    gromov_product,
    halfplane_point,
    seam_minimizer,
)

__version__ = "0.1.0"
