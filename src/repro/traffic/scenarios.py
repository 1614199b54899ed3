"""Multi-tenant side-channel scenarios: the defence, re-tested under load.

The paper evaluates random CTA scheduling (Sec V-C) on a quiet device:
one attacker, no contention.  A real measurement service is shared —
the attacker is *one tenant*, racing background traffic for admission
slots and compute.  This module reruns that evaluation honestly:

* background tenants replay an open-loop schedule through the service
  (:class:`~repro.traffic.driver.OpenLoopDriver`);
* the attacker, concurrently on the same event loop, submits
  ``sidechannel-probe`` batches with a per-request deadline — probes
  lost to 429s or deadlines cost it samples, exactly like dropped probe
  traffic on a production endpoint;
* surviving batches accumulate into the usual leakage fit
  (:func:`repro.sidechannel.rsa_leakage` /
  :func:`~repro.sidechannel.aes_leakage`), once per (offered load,
  scheduler) point.

The claim under test: the random-scheduler defence keeps attacker
leakage below the static scheduler's at every offered load — the
defence is not an artifact of a quiet machine.
"""

from __future__ import annotations

import asyncio

from repro.errors import ConfigurationError
from repro.serve.client import (AsyncServeClient, ServeClientError,
                                ServeDeadlineError)
from repro.sidechannel.probe import aes_leakage, rsa_leakage
from repro.traffic.driver import OpenLoopDriver
from repro.traffic.schedule import compile_schedule
from repro.traffic.spec import ArrivalSpec, TenantSpec, TrafficSpec

#: Scheduler policies a defence evaluation compares.
DEFENSE_SCHEDULERS = ("static", "random")

#: The leakage figure of merit per attack (lower = better defended).
_LEAKAGE_METRIC = {"rsa": "r2", "aes": "peak_r"}


def background_spec(name: str, rate_rps: float, duration_s: float, *,
                    seed: int = 11, window_s: float = 1.0,
                    max_inflight: int = 128) -> TrafficSpec:
    """A background-tenant mix offering ``rate_rps`` against the server.

    One hot-key-skewed tenant probing single latency-matrix cells: the
    hot keys coalesce and cache (cheap, realistic read traffic), the
    Zipf tail forces fresh computations that hold pool slots — both
    kinds of contention the attacker must fight through.
    """
    tenant = TenantSpec(
        name="bg-latency", experiment="latency-matrix", weight=1.0,
        params_base={"sms": [0], "samples": 1},
        hot_keys=16, zipf_s=1.1, key_param="seed")
    return TrafficSpec(
        name=name, seed=seed, duration_s=duration_s, window_s=window_s,
        max_inflight=max_inflight,
        arrival=ArrivalSpec(process="poisson", rate_rps=rate_rps),
        tenants=(tenant,))


async def _attacker(client: AsyncServeClient, *, gpu: str, seed: int,
                    attack: str, scheduler: str, batches: int,
                    deadline_s: float) -> list:
    """Submit probe batches sequentially; keep whatever survived."""
    points = []
    for batch in range(batches):
        try:
            reply = await client.experiment(
                "sidechannel-probe", deadline_s=deadline_s, gpu=gpu,
                seed=seed, attack=attack, scheduler=scheduler,
                batch=batch)
        except (ServeDeadlineError, ServeClientError):
            continue
        if reply.ok:
            points.append(reply.json["value"])
    return points


async def _defense_point(host: str, port: int, *, spec: TrafficSpec,
                         gpu: str, seed: int, attack: str,
                         scheduler: str, batches: int,
                         deadline_s: float) -> dict:
    """One (offered load, scheduler) evaluation: replay + attack."""
    schedule = compile_schedule(spec)
    driver = OpenLoopDriver(schedule, host, port, deadline_s=deadline_s)
    background = asyncio.ensure_future(driver.drive())
    try:
        async with AsyncServeClient(host, port,
                                    deadline_s=deadline_s) as attacker:
            points = await _attacker(attacker, gpu=gpu, seed=seed,
                                     attack=attack, scheduler=scheduler,
                                     batches=batches, deadline_s=deadline_s)
    finally:
        report = await background
    leakage = (rsa_leakage(points) if attack == "rsa"
               else aes_leakage(points))
    return {"offered_rps": schedule.offered_rps,
            "achieved_rps": report.achieved_rps,
            "scheduler": scheduler,
            "batches_sent": batches,
            "batches_landed": len(points),
            "background": report.totals,
            "leakage": leakage}


async def _run_scenario(host: str, port: int, *, loads_rps, gpu, seed,
                        attack, batches, duration_s, deadline_s) -> list:
    points = []
    for load in loads_rps:
        for scheduler in DEFENSE_SCHEDULERS:
            spec = background_spec(f"defense-bg-{load}", load,
                                   duration_s, seed=seed)
            points.append(await _defense_point(
                host, port, spec=spec, gpu=gpu, seed=seed,
                attack=attack, scheduler=scheduler, batches=batches,
                deadline_s=deadline_s))
    return points


def run_defense_under_load(host: str = "127.0.0.1", port: int = 8737, *,
                           loads_rps=(4.0, 24.0), attack: str = "rsa",
                           gpu: str = "V100", seed: int = 7,
                           batches: int = 6, duration_s: float = 3.0,
                           deadline_s: float = 20.0) -> dict:
    """Evaluate the random-scheduler defence at each offered load.

    Returns the per-point measurements plus the verdict the scenario
    exists to check: ``defended_at[load]`` is true when the attacker's
    leakage under the random scheduler stays below its static-scheduler
    leakage at that load, and ``defended`` requires it at *every* load.
    """
    if attack not in _LEAKAGE_METRIC:
        raise ConfigurationError(
            f"unknown attack {attack!r}; use rsa or aes")
    if len(loads_rps) < 1:
        raise ConfigurationError("need at least one offered load")
    points = asyncio.run(_run_scenario(
        host, port, loads_rps=loads_rps, gpu=gpu, seed=seed,
        attack=attack, batches=batches, duration_s=duration_s,
        deadline_s=deadline_s))
    metric = _LEAKAGE_METRIC[attack]
    defended_at = {}
    ordered = iter(points)   # two points per load: static, then random
    for load in loads_rps:
        static_point = next(ordered)
        random_point = next(ordered)
        defended_at[str(load)] = (random_point["leakage"][metric]
                                  < static_point["leakage"][metric])
    return {"attack": attack, "gpu": gpu, "seed": seed,
            "metric": metric, "loads_rps": list(loads_rps),
            "points": points,
            "defended_at": defended_at,
            "defended": all(defended_at.values())}
