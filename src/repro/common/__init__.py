"""Shared low-level utilities used across the repro package.

This package deliberately contains no simulation logic.  It provides the
exception hierarchy, common enumerations and type aliases, byte-size
parsing, integer helpers and argument-validation helpers that every other
subpackage builds on.
"""
