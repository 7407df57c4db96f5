"""liftctl: affine control systems on embedded manifolds, their tangent-bundle
lifts, structural identity checks, rank obstructions, and certified chains."""

from .errors import (
    AntipodalPointsError,
    DefinitionError,
    DegenerateStepError,
    IntegrationError,
    LiftctlError,
    NonFiniteError,
    OffManifoldError,
    PlanningBudgetError,
    SteeringFailure,
    UncontrollablePairError,
)
from .fields import (
    ConstantField,
    LinearField,
    PolynomialField,
    ScalarField,
    VectorField,
    check_pi_related,
    complete_lift,
    complete_lift_function,
    field_from_descriptor,
    lie_bracket,
    vertical_lift_function,
)
from .flow import (
    DEFAULT_STEP,
    AffineSystem,
    ControlSignal,
    Trajectory,
    check_flow_formula,
    check_invariance,
    concat,
    integrate_base,
    integrate_lifted,
    shift,
)
from .liealg import (
    RankReport,
    check_lift_algebra_identity,
    generate_brackets,
    lifted_rank_at,
    rank_at,
)
from .manifold import Manifold, ManifoldKind, TangentPoint
from .planner import (
    Chain,
    ChainLeg,
    FiberWitness,
    LinearGramianOracle,
    SearchOracle,
    SphereRotationOracle,
    VerificationReport,
    check_fiber_reachability,
    compose_chains,
    plan_chain,
    reachable_sample,
    verify_chain,
)
from .sasaki import distance, fiber_segment_point

__version__ = "0.1.0"
