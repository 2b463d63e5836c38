"""Exact-arithmetic chain complexes on finite trees and their products.

The package provides alternating chains with rational coefficients,
aligned subcomplexes of trees with a norm-bounded projection onto them,
orbit signatures with constructive witnesses, exactness audits by sparse
elimination, and l1-minimal filling norms by exact simplex.

Exactness is first decided by an element matching: when it leaves no
critical tuple below the top level, every degree is exact and each rank
is a count of matched pairs.  Otherwise ranks are rational ranks, from
one fraction-free integer elimination per degree.

Each public name resolves on first use: `import alignedchains` loads no
submodule, and reading a name imports the module that defines it, along
with that module's own imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "AltChain": "chains",
    "canonicalize_tuple": "chains",
    "ColumnEchelon": "exactness",
    "DegreeExactness": "exactness",
    "aligned_exactness": "exactness",
    "full_exactness": "exactness",
    "rank_of_columns": "exactness",
    "verify_exactness": "exactness",
    "HomotopyNormReport": "flatmate",
    "ProductComplex": "flatmate",
    "aligned_boundary_problem": "flatmate",
    "flag_growth": "flatmate",
    "flatmate_exactness": "flatmate",
    "flatmate_tuples": "flatmate",
    "homotopy_norm_probe": "flatmate",
    "hull_problem": "flatmate",
    "path_product_family": "flatmate",
    "sample_window_cycles": "flatmate",
    "DEFAULT_DIM_CAP": "limits",
    "DEFAULT_LP_BASIS_CAP": "limits",
    "DEFAULT_VERTEX_CAP": "limits",
    "CapExceeded": "limits",
    "BoundaryProblem": "lp",
    "PreimageResult": "lp",
    "min_l1_preimage": "lp",
    "AlignedSignature": "orbits",
    "CensusReport": "orbits",
    "OrbitClassRecord": "orbits",
    "WitnessResult": "orbits",
    "aligned_signature": "orbits",
    "orbit_class_census": "orbits",
    "orbit_witness": "orbits",
    "BracketReport": "projection",
    "CaterpillarForm": "projection",
    "ChainMapReport": "projection",
    "NormScanReport": "projection",
    "bracket_from_layout": "projection",
    "caterpillar_layout": "projection",
    "end_pair_bracket": "projection",
    "end_pair_bracket_terms": "projection",
    "project_to_aligned": "projection",
    "project_tuple": "projection",
    "projection_norm_scan": "projection",
    "verify_bracket_identities": "projection",
    "verify_chain_map": "projection",
    "PartialIsometry": "trees",
    "Tree": "trees",
    "aligned_tuples": "trees",
    "build_tree": "trees",
    "convex_hull": "trees",
    "extend_partial_isometry": "trees",
    "geodesic": "trees",
    "is_aligned": "trees",
    "load_tree": "trees",
    "parse_edge_list": "trees",
    "path_tree": "trees",
    "random_tree": "trees",
    "regular_ball": "trees",
    "tree_from_pruefer": "trees",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
