"""Target systems: the systems under test GOOFI injects faults into.

One subpackage per target: :mod:`repro.targets.thor`, the simulated
THOR-RD-like microprocessor with scan-chain test logic, and
:mod:`repro.targets.stack`, the THOR-SM stack machine.  Both build on
:mod:`repro.targets.common`, the interface shared by scan-chain targets.
"""
