"""Combinatorial corner structure of compactified monopole moduli spaces.

Partition-lattice face atlases, many-body compactification faces, torus
Chern-weight systems, threshold cluster decomposition of point
configurations, and exact rational-map (resultant) coordinates.
"""

from .clusters import (
    ClusterDecomposition,
    Configuration,
    StrongFieldComponent,
    StrongFieldInput,
    boundary_coords,
    is_decomposable,
    scale_chain,
    separation,
    taubes_cluster,
    types_comparable,
)
from .errors import ChainError, DegenerateInputError, RangeLimitError
from .faces import (
    FaceDescriptor,
    IbfReport,
    corner_atlas,
    cover_schedule,
    hypersurface_atlas,
    intersection_components,
    validate_ibf,
)
from .gibbons_manton import (
    ChernWeightSystem,
    TorusGroupStructure,
    restriction_splits,
    sym_action,
    torus_group_structure,
    weight_system,
)
from .manybody import (
    ManyBodyFace,
    ManyBodyStructure,
    comparable,
    diagonal_structure,
    face_of_chain,
    hypersurfaces,
)
from .manybody import validate as validate_structure
from .partitions import (
    ChainFlag,
    IntegerPartition,
    SetPartition,
    all_partitions,
    chains_mod_symmetric_group,
    flag_symmetry_orders,
    integer_partitions,
    join,
    meet,
    one_block,
    orbit_canonical,
    refines,
    refines_integer_partition,
    singletons,
    symmetry_orders,
    type_of,
)
from .ratmaps import (
    GaussianRational,
    Phase,
    RationalMapPair,
    deck_orbit,
    deck_transform,
    is_based,
    is_centred,
    is_strongly_centred,
    resultant,
    torus_act,
)

__version__ = "0.1.0"
