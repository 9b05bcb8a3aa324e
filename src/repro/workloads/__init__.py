"""Workloads: trace records, generators and experiment suites.

The paper evaluates with synthetic workloads of "memory requests to
random addresses within various address ranges", with disjoint ranges
per core and the *same* per-core address stream replayed across all
partition configurations (Section 5).  :mod:`repro.workloads.synthetic`
implements exactly that; :mod:`repro.workloads.adversarial` builds
access patterns that steer the system toward the analytical worst case.
"""
