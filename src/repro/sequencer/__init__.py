"""The set sequencer (Section 4.5 of the paper).

The set sequencer is the paper's micro-architectural contribution: a
Queue Lookup Table (QLT) that maps each LLC set with pending misses to a
FIFO queue in the Sequencer (SQ), recording the broadcast order of the
requests on the shared bus; :mod:`repro.sequencer.set_sequencer` models
both as one table of per-set FIFOs.  A freed entry in a set may only be claimed
by the core at the head of that set's queue, which removes the
"distance increase" mechanism of Observation 3 and drops the WCL from
Theorem 4.7's partition-size-dependent bound to Theorem 4.8's
``(2(n-1)·n + 1)·N·SW``.
"""
