"""Vectorized measurement engine (the batched Algorithm 1/2 fast path).

The scalar interpreter path (``repro.runtime`` warps driven by
``repro.core.latency_bench`` / ``bandwidth_bench``) is the *golden
model*: every fast-path result must be bit-identical to it, the same
contract ``BatchedMesh`` holds against the one-VC ``VCMesh``.  This package
computes entire SM x slice matrices, bandwidth distributions, saturation
curves and speedup tables as batched NumPy array operations while
consuming the *same* deterministic ``repro.rng`` noise streams:

* :mod:`repro.core.fastpath.noise` — draws keyed Gaussian jitter for
  thousands of (seed, key) streams at once, bit-equal to
  ``rng.jitter(seed, *key)[0]``;
* :mod:`repro.core.fastpath.latency` — Algorithm 1: the measured
  latency matrix, including the golden path's device-state side effects
  (L2 residency/counters, DRAM bytes, access sequence);
* :mod:`repro.core.fastpath.bandwidth` — Algorithm 2: batched
  single-flow solves and direct array assembly for the shared max-min
  flow solver core (:func:`repro.noc.flows.solve_arrays`), run with its
  event-driven fill (:class:`repro.noc.flows.FillPlan`).

Callers select the engine with ``engine="scalar"|"vectorized"`` on the
measurement APIs; ``tests/test_fastpath_equivalence.py`` asserts exact
equality between the two, and the REP004 lint rule keeps the public
surfaces from drifting.
"""
