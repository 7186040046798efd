"""The simulated crowd marketplace substrate.

This package replaces Amazon Mechanical Turk in the reproduction: a worker
pool with reliable/sloppy/spammer archetypes, per-interface answer noise
models grounded in dataset-provided truth oracles, a latency model with
HIT-group attraction and straggler tails, and a boto-style API shim. The
marketplace speaks the engine's ticket protocol
(``submit_hit_group``/``harvest``, see :class:`HITGroupTicket`) and
declares that its HIT groups overlap.
"""

from repro.crowd.faults import FaultPlan, GroupFaultRecord
from repro.crowd.latency import LatencyConfig, LatencyModel, TimeOfDay
from repro.crowd.marketplace import MarketplaceStats, SimulatedMarketplace
from repro.crowd.mturk_api import HITTypeParams, MTurkConnection
from repro.crowd.pool import PoolConfig, WorkerPool
from repro.crowd.truth import FeatureTruth, GroundTruth, RankTruth
from repro.crowd.worker import WorkerProfile, make_reliable, make_sloppy, make_spammer
from repro.hits.hit import HITGroupTicket

__all__ = [
    "FaultPlan",
    "FeatureTruth",
    "GroundTruth",
    "GroupFaultRecord",
    "HITGroupTicket",
    "HITTypeParams",
    "LatencyConfig",
    "LatencyModel",
    "MTurkConnection",
    "MarketplaceStats",
    "PoolConfig",
    "RankTruth",
    "SimulatedMarketplace",
    "TimeOfDay",
    "WorkerPool",
    "WorkerProfile",
    "make_reliable",
    "make_sloppy",
    "make_spammer",
]
