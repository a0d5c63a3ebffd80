"""Computational algebra on finite abelian group extensions.

Endomorphism sets of an extension 0 -> N -> G -> Q -> 1 carry exotic ring
structures; this package enumerates them, computes crossed homomorphisms and
second cohomology, builds quasi-regular groups of finite non-unital rings,
and machine-verifies the exact sequences connecting all of these on concrete
instances.
"""

from .budgets import Budgets, current_budgets
from .catalog import CatalogEntry, catalog_from_json, default_catalog, dihedral_extension, sweep
from .cocycles import (
    CocycleRing,
    CrossedHom,
    cocycle_ring,
    enumerate_z1,
    inflate,
    post_compose,
    restrict_to_module,
    z1_add,
    z1_diamond,
    z1_neg,
    z1_zero,
)
from .cohomology2 import (
    H2Group,
    TwoCocycle,
    coboundary_cocycle,
    coboundary_preimage,
    compute_h2,
    connecting_cocycle,
    h2_order,
    inflation,
    pushforward,
)
from .endo_rings import (
    FiberEndoRing,
    ModuleEndoRing,
    action_preserving_quotient_endos,
    equivariant_endo_ring,
    fiber_endo_ring,
    kernel_fixing_endos,
)
from .errors import BudgetExceeded, GuardExceeded, ValidationError
from .examples import ExampleReport, dihedral_report, ring432_construct, ring432_report
from .extension import (
    AbelianExtension,
    CentralizerData,
    build_extension,
    centralizer_extension,
    extension_from_cocycle,
    extension_from_json,
    extension_to_json,
)
from .groups import (
    ActionTable,
    FiniteGroup,
    GroupHom,
    conjugation_action,
    enumerate_actions,
    enumerate_automorphisms,
    enumerate_endos,
    enumerate_homs,
    find_isomorphism,
    group_from_json,
    group_to_json,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_semidirect_group,
    trivial_action,
)
from .rings import (
    BimoduleAction,
    FiniteRing,
    RingHom,
    SemidirectRing,
    check_ideal,
    is_square_zero_ideal,
    quasi_regular_group,
    quasi_regular_indices,
    quotient_ring,
    ring_from_json,
    ring_to_json,
    semidirect_ring,
    star_table,
    subring_from_indices,
    unit_group,
    zn_ring,
)
from .verify import (
    ExactnessReport,
    SequenceCheck,
    verify_all,
    verify_aut_centralizer_sequence,
    verify_aut_five_term,
    verify_centralizer_sequence,
    verify_crossed_hom_sequence,
    verify_five_term,
    verify_qr_sequence,
)

__version__ = "0.1.0"
