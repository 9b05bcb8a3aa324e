"""Worst-case latency analysis (Section 4 of the paper).

This package holds the paper's analytical contribution, independent of
the simulator:

* :mod:`repro.analysis.distance` — the distance metric of Definition
  4.2 and a tracker for the Observation 1/3 dynamics;
* :mod:`repro.analysis.wcl` — the closed-form WCL bounds: Theorem 4.7
  (1S-TDM without set sequencer), Theorem 4.8 (with set sequencer), and
  the private-partition bound;
* :mod:`repro.analysis.unbounded` — a constructive witness of the
  Section 4.1 unbounded-latency scenario under multi-slot TDM.
"""
