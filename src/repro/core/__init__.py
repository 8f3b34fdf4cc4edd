"""GCSM core: the paper's contribution.

* :mod:`repro.core.matching`  — the incremental WCOJ executor (the
  STMatch-derived kernel of Sec. V-C, expressed over graph views).
* :mod:`repro.core.frequency` — random-walk access-frequency estimation
  (Sec. IV, Theorem 1, and the merged binomial execution of Sec. IV-B).
* :mod:`repro.core.dcsr`      — the doubly-compressed cache format (Sec. V-B).
* :mod:`repro.core.cache`     — cache-selection policies and the cached
  device view (frequency-based for GCSM, degree-based for Naive).
* :mod:`repro.core.engine`    — the one staged per-batch pipeline (Fig. 3)
  and its ``EngineConfig``.
* :mod:`repro.core.baselines` — the UM / ZC / VSGM / CPU placements and the
  ``SYSTEMS`` table that makes every baseline a config row.
* :mod:`repro.core.rapidflow` — the RapidFlow-style candidate-index placement.

The brute-force oracle and the cross-system checkers are not production
code: they live in :mod:`repro.testing` (``reference`` and ``validation``).
"""

from repro.core.matching import MatchStats, match_batch, match_static
from repro.core.frequency import (
    EstimationResult,
    FrequencyEstimator,
    required_walks,
)
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.dcsr import DcsrCache
from repro.core.cache import CachePolicy, FrequencyCachePolicy, DegreeCachePolicy, CachedDeviceView
from repro.core.engine import GCSMEngine, EngineConfig, BatchResult

__all__ = [
    "MatchStats",
    "match_batch",
    "match_static",
    "FrequencyEstimator",
    "FrontierFrequencyEstimator",
    "EstimationResult",
    "required_walks",
    "DcsrCache",
    "CachePolicy",
    "FrequencyCachePolicy",
    "DegreeCachePolicy",
    "CachedDeviceView",
    "GCSMEngine",
    "EngineConfig",
    "BatchResult",
]
