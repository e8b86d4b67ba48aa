"""Balanced biarc interpolation of closed space curves, discrete and
continuous tangent-point energies, thickness, ropelength, and the
experiments tying them together."""

from .biarc import (
    Arc,
    Biarc,
    ImproperPairError,
    IncompatiblePairError,
    PairClass,
    PairError,
    PointTangent,
    balanced_matching_point,
    biarc_parameter,
    build_balanced_biarc,
    classify_pair,
    eval_biarc,
    reflect_about,
)
from .curve import (
    CurveDiagnostics,
    CurveSpec,
    Partition,
    analytic_curve,
    arclength_reparametrize,
    curve_diagnostics,
    gagliardo_seminorm,
    make_partition,
    mollify,
    preset_curve,
    tangent_modulus,
)
from .energy import (
    CoincidentJunctionsError,
    HolderCheck,
    PairStats,
    continuous_tp_energy,
    discrete_tp_energy,
    holder_bound_check,
    pair_stats,
    ropelength_proxy,
    thickness_and_ropelength,
)
from .interpolate import (
    BiarcCurve,
    BiarcCurveBuildError,
    build_biarc_curve,
    c1_distance,
    check_Bn,
    from_junctions,
    junctions_from_text,
    junctions_to_text,
)
from .optimize import AnnealConfig, AnnealTrace, anneal_discrete, trace_to_csv

__version__ = "0.1.0"
