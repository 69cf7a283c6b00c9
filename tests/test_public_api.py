"""The public names of `bowendim`: a name leaves or joins the package"s API
only with an edit here, so a change to the API is a visible decision.  The
same holds for the parameters of the three entry points that compute Z_n(t)."""

import inspect
import types

import pytest

import bowendim

PUBLIC = [
    "ABDimensionBounds", "AscendingSpec", "BalancingReport", "BlockSubsystem",
    "BowendimError", "BoxCountFit", "BracketingError", "BudgetError",
    "BuildError", "CertificationError", "ComposedMap", "ConfigurationError",
    "Contraction", "DiameterReport", "DimensionResult", "EdgeSpec",
    "EllipticModelReport", "GraphSchedule", "GrowthStats", "HypothesisReport",
    "InputError", "IntegrityError", "Letter", "LevelCover",
    "MeasureTrendReport", "MoebiusInverse", "NormBracket", "OscReport",
    "PSeriesTail", "PartitionValue", "PointCloud", "PressureEstimate",
    "PrimitivityCertificate", "SchemaError", "Similarity", "Space",
    "SystemSpec", "TabulatedInterval", "ThetaBounds", "UnsupportedError",
    "Word", "ab_dimension_bounds", "autonomous_closure", "balancing_class",
    "bowen_dimension", "box_counting_dim", "build_ascending",
    "build_cf_system", "build_gdms", "build_similarity_system",
    "certify_primitivity", "classify_rho", "compose_norm", "continuants",
    "contraction_eta", "count_words", "diameter_diagnostics", "disk",
    "distortion_constant", "elliptic_lower_bound", "evenly_varying_check",
    "extract_subsystem_g_bounded", "find_primitivity",
    "gaussian_lattice_poles", "growth_stats", "hausdorff_measure_trend",
    "hypothesis_report", "image_region", "interval", "is_admissible",
    "level_cover", "partition", "pressure_estimate", "reblock_one_primitive",
    "reblock_pinched", "sample_limit_set", "subexp_diagnostic",
    "system_theta", "theta_bounds",
    "validate_system", "verify_osc",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(bowendim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


_POS, _KW = "POSITIONAL_OR_KEYWORD", "KEYWORD_ONLY"
SIGNATURES = {
    "partition": [
        ("system", _POS), ("m", _POS), ("n", _POS), ("t", _POS), ("budget", _KW),
    ],
    "pressure_estimate": [
        ("system", _POS), ("t", _POS), ("window", _POS), ("budget", _KW),
    ],
    "bowen_dimension": [
        ("system", _POS), ("t_bracket", _POS), ("n_max", _POS), ("tol", _POS),
        ("window", _POS), ("budget", _KW), ("p_max", _KW),
    ],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_entry_point_parameters_are_pinned(name):
    params = inspect.signature(getattr(bowendim, name)).parameters.values()
    assert [(p.name, p.kind.name) for p in params] == SIGNATURES[name]
