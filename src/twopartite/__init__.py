"""Finite 2-partite digraphs: construction, homogeneity, classification.

The package decides, at desk scale, everything the classification of
homogeneous 2-partite digraphs promises: catalog constructors for each
class, an exact homogeneity decider, level-bounded extension-property
checks for the generic classes, a classification decision tree, a
back-and-forth engine for aligning approximants, and a census of every
homogeneous class on bounded sides that audits the classification.
"""

from .core import (
    PAIR_LR,
    PAIR_NONE,
    PAIR_RL,
    Side,
    TwoPartiteDigraph,
    build,
    from_json_obj,
    from_json_text,
    to_dot,
    to_json_obj,
    to_json_text,
)
from .catalog import (
    ApproximantSpec,
    Direction,
    complement_matching_digraph,
    complete_bipartite_digraph,
    empty_digraph,
    generic_2partite_approx,
    generic_bipartite_approx,
    generic_orientation_approx,
    matching_complement_pair,
    matching_digraph,
    witness_closure,
)
from .iso import (
    CanonicalForm,
    HomogeneityVerdict,
    PartialMap,
    are_isomorphic,
    automorphisms,
    canonical_form,
    extends_to_automorphism,
    is_homogeneous,
    is_valid_partial_iso,
)
from .genericity import (
    GenericityReport,
    Mode,
    Requirement,
    brute_witness_scan,
    check_generic_2partite,
    check_generic_bipartite,
    check_generic_orientation,
    iter_requirements,
    requirement,
)
from .classify import (
    BipartiteKind,
    ClassCase,
    ClassLabel,
    classify_exact,
    classify_profile,
    edge_direction,
    classify_bipartite_graph,
    matching_complement_size,
)
from .backforth import (
    BafStep,
    BafTrace,
    UniquenessReport,
    back_and_forth,
    replay,
    uniqueness_demo,
)
from .census import (
    CensusEntry,
    AuditReport,
    census_homogeneous,
    verify_classification,
)
from . import errors

__version__ = "0.1.0"
