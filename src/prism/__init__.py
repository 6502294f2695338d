"""Prism: structural-symmetry diagnostics for weighted graphs.

Measures how far a graph Laplacian is from commuting with a symmetric
involution (the duality defect), projects Laplacians onto the commutant of
such an operator in closed form, learns the operator from the graph, and
ships the synthetic, club-graph, and correlation-network experiment drivers
built on those pieces.
"""

from .duality import (
    DualityOperator,
    ProjectionResult,
    commutant_projection,
    duality_defect,
    identity_operator,
    load_operator,
    operator_from_text,
    operator_to_text,
    permutation_operator,
    save_operator,
    validate_involution,
)
from .graphs import (
    Graph,
    SpectralDecomposition,
    connected_components,
    fiedler_vector,
    graph_from_edges,
    graph_from_text,
    graph_to_text,
    is_connected,
    laplacian,
    load_graph,
    save_graph,
    symmetric_eig,
)
from .learn import (
    AlternatingConfig,
    FiedlerPairing,
    LearnResult,
    alternate,
    fiedler_duality_operator,
    fiedler_pairing,
    optimize_p_step,
    pairing_operator,
    snap_to_involution,
)
from .benchmarks import (
    NoiseBenchmarkReport,
    RewireReport,
    SyntheticDualNetwork,
    accuracy,
    fiedler_bipartition,
    flip_edges,
    generate_dual_network,
    index_reversal_operator,
    karate_club,
    modularity,
    noise_benchmark,
    rewire,
    rewire_experiment,
    rmt_labels,
)
from .finance import (
    CommunityReport,
    EventStudy,
    PricePanel,
    ReturnPanel,
    RollingSeries,
    WindowStats,
    communities,
    correlation_graph,
    event_study,
    load_prices,
    log_returns,
    rolling_defect,
    window_defect,
    window_stats,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
