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

from . import applications, consensus, geometry, graph, harness, hull, termination
from .errors import InvariantViolation
from .graph import *  # noqa: F403
from .geometry import *  # noqa: F403
from .consensus import *  # noqa: F403
from .hull import *  # noqa: F403
from .termination import *  # noqa: F403
from .applications import *  # noqa: F403
from .harness import *  # noqa: F403

# the union of the modules' export lists is the package's
__all__ = ["InvariantViolation", *graph.__all__, *geometry.__all__, *consensus.__all__,
           *hull.__all__, *termination.__all__, *applications.__all__, *harness.__all__]

__version__ = "0.1.0"
