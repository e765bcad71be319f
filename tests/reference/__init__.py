"""Scalar reference oracles kept out of the shipped package.

Each module here is a straightforward (slow) implementation that a
vectorized production path in ``src/repro`` must agree with; the
equivalence suites import them.
"""
