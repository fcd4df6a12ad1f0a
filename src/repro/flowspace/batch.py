"""The retired columnar-mode switch, kept for the benchmark harness."""

from __future__ import annotations

__all__ = ["set_columnar"]


def set_columnar(enabled: bool) -> None:
    """Accept and ignore the retired columnar-mode switch.

    There is one packet path (DESIGN.md, "One packet path"), so this has
    no effect.  It exists only because the benchmark harness still calls
    ``set_columnar(workload.columnar)`` for every workload
    (``bench/unit.py``); it goes together with that call and the
    ``m1_columnar`` workload (ROADMAP item 7).
    """
    del enabled
