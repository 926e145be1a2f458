"""Exact computation for finitely generated systems of partial injective
maps on finite metric spaces, plus the full binary shift: dynamical and
Bowen balls, separated-set entropy, invariance/ergodicity/homogeneity and
expansiveness verdicts, conjugation transfer, equicontinuity certificates,
and a randomized statement-conformance suite."""

__version__ = "0.1.0"

from .errors import CapabilityError, InputError, PreconditionError
from .rational import UNBOUNDED, format_rational, is_unbounded, parse_rational
from .space import FiniteMetricSpace, PointSet
from .pseudogroup import (
    GeneratingSystem,
    GermRelation,
    PartialMap,
    WordClosure,
    compacted_system,
    germ_relation,
    raw_word_maps,
    separation_radius,
    word_closure,
)
from .dynamics import (
    BallReport,
    bowen_ball,
    brute_force_separated,
    dyn_ball,
    dyn_ball_via_formula,
    h_top_table,
    separated_count,
)
from .measure import (
    ExpansivenessVerdict,
    FiniteMeasure,
    brute_force_invariant_sets,
    expansiveness_verdict,
    invariant_sets,
    is_ergodic,
    is_homogeneous,
    is_invariant_measure,
    local_entropy,
    orbit_components,
)
from .shift import (
    BernoulliSpec,
    Cylinder,
    ShiftPoint,
    bowen_ball_shift,
    cylinder_measure,
    dyn_ball_cylinder,
    dyn_ball_cylinder_bounds,
    htop_shift,
    measure_entropy_shift,
    shift_distance,
    window_radius,
)
from .morphism import (
    SpaceIso,
    compare_entropy,
    conjugate_map,
    conjugate_system,
    pushforward,
    transfer_expansive_constant,
)
from .equicont import (
    EquicontinuityCertificate,
    equicontinuity_modulus,
    no_expansive_certificate_good,
    no_expansive_certificate_group,
)
from .probes import (
    InstanceSpec,
    ProbeReport,
    random_instance,
    run_suite,
)
from .model import Model, load_model, parse_model
