"""Consensus on directed graphs with distributed finite-time stopping.

The engines here (push-sum ratio consensus and row-stochastic averaging)
move every node's state into the convex hull of its in-neighbors' states,
so the state cloud's hull shrinks monotonically. That geometry powers two
distributed stopping rules with exact guarantees: a peer-to-peer extreme
point exchange that reaches the global hull in diameter-many rounds, and a
lightweight scalar radius recursion whose value certifies a bounding ball.
Applications: decentralized least squares with a computable error bound and
distributed function evaluation with Holder error control.
"""

from .errors import InvariantViolation
from .graph import (DiGraph, StochasticMatrix, generate_digraph,
                    graph_from_json, graph_to_json, m_in_neighborhood,
                    make_weights)
from .geometry import (PointSet, canonicalize_points, extreme_points,
                       hull_diameter, hull_membership, is_convex_decreasing,
                       pairwise_spread, support_function, vector_norm)
from .consensus import (ConsensusTrace, RatioState, RowState, consensus_limit,
                        make_ratio_state, perron_left, ratio_step,
                        read_state_csv, row_step, run_consensus,
                        scalar_vector_equivalence_check, write_state_csv)
from .hull import (HullNodeState, decode_extreme_set,
                   distance_from_convergence_bound, encode_extreme_set,
                   hull_round, run_hull_consensus)
from .termination import (MinMaxEnvelope, StopTrace, bandwidth_accounting,
                          bit_step, box_criterion, minmax_envelope,
                          radius_step, run_box_stopping, run_hull_stopping,
                          run_radius_stopping, windowed_radius_trace,
                          write_termination_csv)
from .applications import (ErrorBound, LseBounds, flatten_payload, funccalc_error,
                           funccalc_init, lse_batch, lse_consensus_estimate,
                           lse_error_bound, lse_error_bound_blocks, lse_error_bounds,
                           lse_gram, lse_local_payload, lse_payload_states, operator_norm,
                           polynomial_basis, registered_function,
                           unflatten_payload)
from .harness import (ExperimentConfig, RunResult, compare_criteria,
                      run_experiment, verify_states_file)

__version__ = "0.1.0"
