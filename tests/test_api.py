"""The public names of the package. An export added, removed or renamed
changes this list, and the change is then listed in CHANGES.md."""

import types

import biarcs

PUBLIC_API = [
    "AnnealConfig",
    "AnnealTrace",
    "Arc",
    "Biarc",
    "BiarcCurve",
    "BiarcCurveBuildError",
    "CoincidentJunctionsError",
    "CurveDiagnostics",
    "CurveSpec",
    "HolderCheck",
    "ImproperPairError",
    "PairError",
    "PairStats",
    "Partition",
    "PointTangent",
    "analytic_curve",
    "anneal_discrete",
    "arclength_reparametrize",
    "biarc_parameter",
    "build_balanced_biarc",
    "build_biarc_curve",
    "c1_distance",
    "check_Bn",
    "continuous_tp_energy",
    "curve_diagnostics",
    "discrete_tp_energy",
    "eval_biarc",
    "from_junctions",
    "gagliardo_seminorm",
    "holder_bound_check",
    "junctions_from_text",
    "junctions_to_text",
    "make_partition",
    "mollify",
    "pair_stats",
    "preset_curve",
    "ropelength_proxy",
    "tangent_modulus",
    "thickness_and_ropelength",
    "trace_to_csv",
]


def test_public_names():
    # submodules (biarc, curve, ...) become attributes once imported; they
    # are the package's layout, not its exports
    names = sorted(
        name
        for name, value in vars(biarcs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_API
