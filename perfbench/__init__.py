"""Benchmark of the classicality package; see README.md in this directory."""
