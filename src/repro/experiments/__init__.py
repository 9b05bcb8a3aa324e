"""Experiment harnesses reproducing the paper's evaluation (Section 5).

* :mod:`repro.experiments.configs` — builds the paper's platform
  configurations from the ``SS/NSS/P`` notation;
* :mod:`repro.experiments.fig7` — observed vs analytical WCL
  (Figure 7);
* :mod:`repro.experiments.fig8` — execution time at fixed total
  partition capacity (Figures 8a–8d);
* :mod:`repro.experiments.tables` — plain-text table rendering used by
  the benchmarks and the CLI.
"""
