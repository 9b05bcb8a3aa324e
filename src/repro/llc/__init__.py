"""The shared, partitioned, inclusive last-level cache (L3).

This package models exactly the LLC of the paper's system model
(Section 3): set-associative, inclusive of the private L2s, carved into
partitions that are either private to one core (``P``) or shared by a
group of cores with (``SS``) or without (``NSS``) the set sequencer.
"""
