"""The slot-accurate trace-driven simulator.

This package reproduces the paper's "in-house trace simulator that
simulates the cache subsystem of a four-core system" (Section 5),
generalised to any core count, geometry and partition map.  Time
advances in TDM bus slots; private-cache execution is folded between
slot boundaries.
"""
