"""Whole-job benchmark for the cimflow CIM stack (see README.md)."""
