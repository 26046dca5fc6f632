"""Combinatorial corner structure of compactified monopole moduli spaces.

Partition-lattice face atlases, many-body compactification faces, torus
Chern-weight systems, threshold cluster decomposition of point
configurations, and exact rational-map (resultant) coordinates.

Importing the package loads none of its submodules: each public name below
is looked up in its home module on first access (PEP 562), so a process
pays only for the modules it uses.
"""

#: Public name -> the submodule that defines it.
_HOME = {
    **dict.fromkeys(
        ("ClusterDecomposition", "Configuration", "StrongFieldComponent", "StrongFieldInput",
         "boundary_coords", "is_decomposable", "scale_chain", "separation", "taubes_cluster",
         "types_comparable"),
        "clusters"),
    **dict.fromkeys(("ChainError", "DegenerateInputError", "RangeLimitError"), "errors"),
    **dict.fromkeys(
        ("FaceDescriptor", "IbfReport", "corner_atlas", "cover_schedule", "hypersurface_atlas",
         "intersection_components", "iter_corner_atlas", "validate_ibf"),
        "faces"),
    **dict.fromkeys(
        ("ChernWeightSystem", "TorusGroupStructure", "restriction_splits", "sym_action",
         "torus_group_structure", "weight_system"),
        "gibbons_manton"),
    **dict.fromkeys(
        ("ManyBodyFace", "ManyBodyStructure", "comparable", "diagonal_structure",
         "face_of_chain", "hypersurfaces", "validate_structure"),
        "manybody"),
    **dict.fromkeys(
        ("ChainFlag", "IntegerPartition", "SetPartition", "all_partitions",
         "chains_mod_symmetric_group", "flag_symmetry_orders", "integer_partitions", "join",
         "meet", "one_block", "orbit_canonical", "refines", "refines_integer_partition",
         "singletons", "symmetry_orders", "type_of"),
        "partitions"),
    **dict.fromkeys(
        ("GaussianRational", "Phase", "RationalMapPair", "deck_orbit", "deck_transform",
         "is_based", "is_centred", "is_strongly_centred", "resultant", "torus_act"),
        "ratmaps"),
}

#: Public names that differ from their name in the home module.
_RENAMED = {"validate_structure": "validate"}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), _RENAMED.get(name, name))
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
