"""Defence-under-load scenarios: the attacker as one tenant among many.

The headline test reruns the paper's random-scheduler defence with
background traffic contending through the shared service at two offered
loads, asserting the defence's leakage reduction survives load — the
same bar :mod:`tests.test_defense_eval` sets on a quiet device (random
below static), now measured through the full admission + worker path.
"""

from __future__ import annotations

import pytest

from repro.errors import AttackError, ConfigurationError
from repro.gpu.device import SimulatedGPU
from repro.runtime.scheduler import RandomScheduler, StaticScheduler
from repro.serve import ServeClient, serve_in_thread
from repro.sidechannel.probe import (aes_leakage, aes_probe_batch,
                                     probe_scheduler, rsa_leakage,
                                     rsa_probe_batch)
from repro.traffic import (background_spec, compile_schedule,
                           run_defense_under_load)


class TestProbeBatches:
    def test_probe_scheduler_policies(self):
        gpu = SimulatedGPU("V100", seed=0)
        assert isinstance(probe_scheduler(gpu, "static", 1, 0),
                          StaticScheduler)
        assert isinstance(probe_scheduler(gpu, "random", 1, 0),
                          RandomScheduler)
        with pytest.raises(AttackError):
            probe_scheduler(gpu, "fifo", 1, 0)

    def test_rsa_batch_is_deterministic_and_distinct(self):
        one = rsa_probe_batch("V100", 7, "static", 0)
        again = rsa_probe_batch("V100", 7, "static", 0)
        assert one == again
        assert len(one["ones"]) == len(one["cycles"]) == 16
        # the random scheduler's placement stream is batch-keyed:
        # distinct batches must see distinct timings
        r0 = rsa_probe_batch("V100", 7, "random", 0)
        r1 = rsa_probe_batch("V100", 7, "random", 1)
        assert r0["cycles"] != r1["cycles"]

    def test_rsa_batch_validation(self):
        with pytest.raises(AttackError):
            rsa_probe_batch("V100", 7, "static", 0, samples_per_point=0)
        with pytest.raises(AttackError):
            rsa_probe_batch("V100", 7, "static", 0, ladder_width=2)

    def test_rsa_leakage_fits_accumulated_batches(self):
        batches = [rsa_probe_batch("V100", 7, "static", b)
                   for b in (0, 1)]
        leak = rsa_leakage(batches)
        assert leak["samples"] == 32
        assert leak["r2"] > 0.9, leak       # static: clean ladder fit
        assert rsa_leakage([])["r2"] == 0.0

    def test_aes_batch_and_leakage(self):
        batch = aes_probe_batch("V100", 7, "static", 0, samples=12)
        assert len(batch["cycles"]) == 12
        leak = aes_leakage([batch])
        assert leak["samples"] == 12
        assert 0.0 <= leak["peak_r"] <= 1.0
        assert aes_leakage([])["samples"] == 0
        with pytest.raises(AttackError):
            aes_probe_batch("V100", 7, "static", 0, samples=4)


class TestScenario:
    def test_background_spec_compiles(self):
        spec = background_spec("bg", 20.0, 2.0)
        schedule = compile_schedule(spec)
        assert len(schedule.requests) > 0
        assert all(r.experiment == "latency-matrix"
                   for r in schedule.requests)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_defense_under_load(attack="dpa")
        with pytest.raises(ConfigurationError):
            run_defense_under_load(loads_rps=())

    def test_defense_holds_under_load(self, tmp_path):
        """Random scheduling keeps RSA leakage below static at both
        offered loads, measured through the loaded shared service."""
        with serve_in_thread(workers=2, cache_dir=tmp_path,
                             max_inflight=8) as server:
            ServeClient(port=server.port).wait_healthy(deadline_s=60)
            result = run_defense_under_load(
                port=server.port, loads_rps=(3.0, 12.0), attack="rsa",
                batches=3, duration_s=1.5, deadline_s=60.0)
        assert len(result["points"]) == 4
        for point in result["points"]:
            # under these budgets the attacker always lands something
            assert point["batches_landed"] > 0, point
            assert point["achieved_rps"] > 0, point
        assert result["defended_at"] == {"3.0": True, "12.0": True}, result
        assert result["defended"] is True
        static = [p for p in result["points"]
                  if p["scheduler"] == "static"]
        randomized = [p for p in result["points"]
                      if p["scheduler"] == "random"]
        # the gap is large, not marginal: static fits the ladder almost
        # perfectly, random destroys most of the variance explained
        for s, r in zip(static, randomized):
            assert s["leakage"]["r2"] > 0.9, s
            assert r["leakage"]["r2"] < 0.8 * s["leakage"]["r2"], r
