"""Test-support machinery shipped with the library.

Unlike ``tests/`` (which is not importable from installed code), this package
holds instrumentation that production modules cooperate with — most notably
the deterministic fault-injection harness (:mod:`repro.testing.faults`) whose
named fault points are compiled into the ledger, the pipeline, the session
and the HTTP service so crash-recovery behaviour can be proven, not assumed.

The scalar oracles the equivalence suites compare the production engines
against live in :mod:`repro.testing.reference`.  This ``__init__`` must not
import that module: production code imports :mod:`repro.testing.faults`,
which runs this file.
"""

from repro.testing.faults import (
    FaultPlan,
    FaultPoint,
    InjectedCrash,
    InjectedFault,
    active_plan,
    fire,
)

__all__ = [
    "FaultPlan",
    "FaultPoint",
    "InjectedCrash",
    "InjectedFault",
    "active_plan",
    "fire",
]
