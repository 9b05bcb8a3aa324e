"""Generic cache building blocks.

This package provides the pieces shared by every cache level: the line
record, replacement policies, per-set storage and a generic
set-associative cache used for the private L1/L2 levels.  The shared LLC
has richer semantics (partitioning, inclusive owner tracking, the
``PENDING_EVICT`` entry lifecycle) and lives in :mod:`repro.llc`.
"""
