"""Observer design and validation for networks coupled through directed hypergraphs."""

from .hypergraph import (
    DirectedHypergraph,
    Hyperedge,
    HierarchicalGenSpec,
    LayerTooSmall,
    NegativeWeight,
    NodeOutOfRange,
    OverlappingTailsHeads,
    WeightSumViolation,
    generate_hierarchical,
)
from .dynamics import (
    CouplingFunction,
    DimensionMismatch,
    NetworkSystem,
    OutputMap,
    VectorField,
    bistable_field,
    identity_output,
    linear_coupling,
    linear_output,
    lorenz_field,
    tanh_coupling,
)
from .assembly import (
    CertificationReport,
    EmptySampleSet,
    MissingOutsideError,
    NonpositiveMargin,
    RobustnessBound,
    SubsetNotHeadClosed,
    check_thm2,
    stack_roots,
    thm3_bound,
)
from .gain_design import (
    Infeasible,
    NoMeasuredNodes,
    ObserverDesign,
    design_gain_thm2,
)
from .designer import (
    AllMeasured,
    DesignOptions,
    DesignOutcome,
    EmptyTrajectorySet,
    design_observer,
    propagate_robustness_bounds,
    select_node,
)
from .sim import (
    EnsembleDiverged,
    EnsembleStats,
    SimConfig,
    TrajectoryEnsemble,
    TrajectoryEnsembleSpec,
    make_ensemble,
    monte_carlo,
    settling_time,
    simulate_network,
)

__version__ = "0.1.0"
