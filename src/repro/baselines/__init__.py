"""Baselines the paper compares DIFANE against.

* :mod:`repro.baselines.nox` — the Ethane/NOX architecture: every flow's
  first packet punts to a capacity-bounded central controller that
  installs an exact-match microflow rule.
* :mod:`repro.baselines.proactive` — install the entire policy on every
  ingress switch (unbounded TCAM reference point).
* :mod:`repro.baselines.microflow_cache` — trace-driven cache simulators
  (microflow vs. DIFANE's independent wildcard fragments) for the
  cache-miss-rate experiment.
"""

from repro.baselines.nox import NoxController, NoxNetwork, NoxSwitch
from repro.baselines.proactive import ProactiveNetwork, ProactiveSwitch
from repro.baselines.microflow_cache import (
    CacheSimResult,
    ReplayTrace,
    simulate_microflow_cache,
    simulate_wildcard_cache,
)

__all__ = [
    "NoxController",
    "NoxSwitch",
    "NoxNetwork",
    "ProactiveSwitch",
    "ProactiveNetwork",
    "CacheSimResult",
    "ReplayTrace",
    "simulate_microflow_cache",
    "simulate_wildcard_cache",
]
