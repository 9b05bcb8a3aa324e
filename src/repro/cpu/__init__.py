"""Per-core hardware: the private L1I/L1D/L2 stack and the core model.

Each core runs one task (Section 3: "one task can be mapped to one
core"), modelled as a memory trace.  The core has at most one
outstanding LLC request; private hits are serviced at fixed latencies
without touching the shared bus.
"""
