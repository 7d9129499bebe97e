"""fticalc: exact algebra for finite-type 3-manifold invariant filtrations.

Subpackages by topic: symplectic lattices and transvections, exterior
algebra over them, the Lagrangian-fixing difference-action calculus,
free-group Magnus expansions, blink/link surgery brackets with Seifert
matrix invariants, and the chord-diagram 4-term rewriting calculus.
All arithmetic is exact; values are immutable and safe to share.
"""

from .symplectic import (
    IncompatibleLagrangians,
    SpMatrix,
    Sublattice,
    SymplecticLattice,
    compose,
    complementary_lagrangian,
    is_compatible,
    lagrangian_split_linking,
    realize_symmetric,
    transvection,
)
from .exterior import (
    MultiVector,
    act,
    embed_wedge3,
    in_span,
    kernel_wedge2_generators,
    quotient_mod_L,
    tensor_wedge,
    wedge,
)
from .johnson import (
    LbarElement,
    filtration_containment,
    filtration_level,
    level_generators,
    lmo1_delta,
    lmo_delta,
    triple_commutator_tau,
)
from .groupring import (
    GroupWord,
    TruncatedSeries,
    binomial_identity_check,
    iadic_degree,
    lcs_commutator,
    magnus,
    parse_word,
)
from .links import (
    BlinkPresentation,
    FormalSum,
    FramedLink,
    LaurentPoly,
    SeifertMatrix,
    alexander,
    blink_linking_matrix,
    boundary_to_blink,
    bracket_expand,
    casson,
    fundamental_relation,
    phi,
    seifert_congruent,
    seifert_framing_to_framing,
)
from .chords import (
    ChordDiagram,
    DiagramSum,
    ReductionLimits,
    boundary_degree,
    canonicalize,
    chords_intersect,
    four_term,
    multi_tower_reduce,
    pigeonhole_ok,
    tower_reduce,
)

__version__ = "0.1.0"
