"""Set-partition modulation: codebook construction and selection, exact
rate formulas, closed-form BER bounds, and a frequency-domain Monte-Carlo
link simulator with index-modulation baselines."""

__version__ = "0.1.0"

from .combinatorics import (
    bell,
    enumerate_ordered_partitions,
    enumerate_partitions,
    optimal_k,
    optimal_k_ordered,
    ordered_bell,
    stirling2,
)
from .constellations import (
    ConstellationFamily,
    psk_family,
    qam_family,
)
from .codebook import (
    IndexCodebook,
    RateFigures,
    Scheme,
    asymptotic_max_rate,
    asymptotic_rate,
    build_index_codebook,
    build_scheme,
    codebook_dmin,
    rate,
)
from .selection import (
    CliqueResult,
    HammingGraph,
    brute_force_k_clique,
    build_hamming_graph,
    clique_upper_bound,
    exact_max_clique,
    is_clique,
    vertex_exclusion,
)
from .simulation import (
    BerReport,
    RateReport,
    SimConfig,
    estimate_rate,
    simulate_ber,
)
from .analysis import union_bound_ber
