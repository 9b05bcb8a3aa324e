"""Shared L2<->LLC bus: TDM schedules, buffers and arbitration.

The bus is the timing backbone of the paper's model (Section 3): cores
only talk to the LLC inside their TDM slots, and the LLC only responds
within the requesting core's slot.  The worst-case analysis of Section 4
is entirely in terms of slots of this bus.
"""
