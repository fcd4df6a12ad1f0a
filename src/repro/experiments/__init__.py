"""Experiment harness: one module per reproduced table/figure.

Every experiment exposes a ``run_*`` function that builds its workload,
exercises the system(s) and returns an :class:`ExperimentResult` (Series /
table rows / notes).  Which function each id runs, at which full and
quick scale, and which golden pins it, is declared once in
:mod:`repro.experiments.registry` (not imported here).  See
EXPERIMENTS.md for the paper-claim ↔ measured-result index.

| Module          | Paper item | Claim |
|-----------------|-----------|-------|
| ``policies``    | Table 1   | workload characteristics |
| ``throughput``  | Fig. E2   | authority switch ≈800K flows/s vs NOX ≈50K |
| ``scaling``     | Fig. E3   | DIFANE setup throughput scales with k |
| ``delay``       | Fig. E4   | first-packet delay ≈0.4 ms vs ≈10 ms |
| ``partitioning``| Fig. E5/E6, E10 | TCAM per authority switch vs k; split overhead |
| ``caching``     | Fig. E7   | wildcard caching ≫ microflow caching |
| ``stretch``     | Fig. E8   | modest, placement-dependent stretch |
| ``dynamics``    | Table E9  | cost of policy churn / mobility / failover |
| ``cachingablation`` | E8C   | eviction policy × capacity on streaming traffic |
| ``qos``         | E9Q       | per-class SLO protection under flash crowds |
| ``ablations``   | A1–A5     | eviction, prefetch, skew, granularity, rebalance |
| ``failover``    | §4.3 (A6) | transient loss bounded by detection delay |
| ``chaos``       | §4.3 (C1, C2) | invariants + attribution under composed faults |
| ``streaming``   | §4.4 (M1) | million-host soak in bounded RAM via sketches |
| ``registry``    | all ids   | the experiment table: runner, full, quick, golden |
"""

from repro.experiments.common import CALIBRATION, ExperimentResult

__all__ = ["CALIBRATION", "ExperimentResult"]
