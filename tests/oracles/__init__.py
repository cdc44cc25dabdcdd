"""Scalar reference implementations the test suite compares ``src/`` against."""
