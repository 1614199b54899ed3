"""Vectorized Algorithm 2: bandwidth distributions and batched solves.

Two fast paths, both bit-identical to the scalar
``TopologyGraph.build`` + ``FlowNetwork.solve`` pipeline:

* :func:`vectorized_bandwidth_distribution` exploits the closed form of
  a *single-flow* network — progressive filling with one flow is a plain
  ``min`` over its caps, and the flow's inflation and its MSHR budget
  link's inflation follow the same damped recurrence from 1.0 — so the
  whole per-SM distribution (Fig 9b/13) runs as one batched fixed-point
  iteration over all SMs at once, lane-frozen exactly where the scalar
  solver's convergence test would break.
* :func:`solve_traffic` assembles the solver's flat arrays straight from
  a traffic pattern (:func:`traffic_arrays`: same link registry order,
  same capacities, slice jitter drawn in batch) and runs the *shared*
  core :func:`repro.noc.flows.solve_arrays` — skipping the FlowNetwork
  object/string machinery the scalar builder pays per flow — with the
  event-driven fill (:class:`repro.noc.flows.FillPlan`), whose rounds
  touch only the links and the pairs they freeze.
"""

from __future__ import annotations

import numpy as np

from repro import rng, units
from repro.core.fastpath.latency import _geometry, _structural_base
from repro.core.fastpath.noise import get_bank
from repro.errors import ConfigurationError, SolverError
from repro.noc.flows import (_DAMPING, _MAX_FIXPOINT_ITERS, _RATE_TOL,
                             _RHO_CLAMP, solve_arrays)
from repro.noc.topology_graph import AccessKind


def _slice_capacities(topology, services) -> dict:
    """Jittered ``TopologyGraph._slice_capacity`` values, drawn in batch.

    Cached on the topology: capacities are a pure function of
    (seed, slice), and the scalar path re-draws them per ``add_link``.
    """
    cache = getattr(topology, "_fastpath_slice_caps", None)
    if cache is None:
        cache = {}
        topology._fastpath_slice_caps = cache
    todo = [s for s in services if s not in cache]
    if todo:
        spec = topology.spec
        draws = get_bank().batch_normal_texts(
            rng.render_keys(topology.seed, ("slice-bw", rng.COLUMN), todo),
            spec.slice_bw_sigma_gbps)
        for s, jit in zip(todo, draws.tolist()):
            cache[s] = max(spec.slice_bw_gbps + jit,
                           spec.slice_bw_gbps * 0.5)
    return {s: cache[s] for s in services}


def _rt_seconds_matrix(gpu, sm_idx: np.ndarray, sl_idx: np.ndarray,
                       l2_hit: bool) -> tuple:
    """([n x m] unloaded round-trip seconds, hit-path service matrix)."""
    model = gpu.topology.latency
    cycles, service = _structural_base(model, sm_idx, sl_idx, hit=l2_hit)
    return (units.cycles_to_seconds(cycles, gpu.spec.core_clock_hz),
            service)


def vectorized_bandwidth_distribution(gpu, slice_id: int,
                                      sms=None) -> np.ndarray:
    """Per-SM solo bandwidth to one slice (Fig 9b/13) as one batch.

    Bit-identical to ``slice_bandwidth_distribution(..., engine="scalar")``:
    each lane reproduces that SM's single-flow solve, including the
    damped inflation fixed point and its per-SM iteration count.
    """
    sms = list(sms) if sms is not None else gpu.hier.all_sms
    top = gpu.topology
    spec = gpu.spec
    kind = AccessKind.READ
    for sm in sms:
        if not 0 <= sm < spec.num_sms:
            gpu.hier.sm_info(sm)
    if not 0 <= slice_id < spec.num_slices:
        gpu.hier.slice_info(slice_id)
    sm_idx = np.asarray(sms, dtype=int)
    rt, service = _rt_seconds_matrix(gpu, sm_idx,
                                     np.asarray([slice_id], dtype=int),
                                     l2_hit=True)
    rt, service = rt[:, 0], service[:, 0]
    geo = _geometry(top.latency)
    crossing = geo.sm_part[sm_idx] != geo.sl_part[service]

    scale = top._kind_scale(kind)
    # mean_rt over a one-slice list is the rt itself (sum([x])/1 == x)
    budget = scale * spec.sm_mshr_bytes / rt / units.GB
    in_flight = np.where(crossing,
                         spec.flow_mshr_bytes + spec.noc_buffer_bytes,
                         spec.flow_mshr_bytes)
    littles = scale * in_flight / rt / units.GB
    hard = scale * spec.flow_cap_gbps

    # static (non-budget) link capacities along each lane's path
    static_caps = [top._tpc_capacity(kind)]
    if spec.tpcs_per_cpc and top._cpc_capacity(kind) > 0:
        static_caps.append(top._cpc_capacity(kind))
    static_caps += [spec.gpc_out_gbps, spec.gpc_mp_channel_gbps,
                    spec.mp_input_gbps]
    slice_caps = _slice_capacities(top, sorted(set(service.tolist())))
    static = np.minimum(min(static_caps),
                        np.array([slice_caps[s]
                                  for s in service.tolist()]))
    static = np.where(crossing,
                      np.minimum(static, spec.partition_bridge_gbps), static)

    # batched single-flow fixed point: rate = min(littles/s, hard,
    # budget/s, static); s chases the concentrator inflation target with
    # the solver's damping; lanes freeze at the solver's convergence test
    gpc_cap = spec.gpc_out_gbps
    chan_cap = spec.gpc_mp_channel_gbps
    bridge_cap = spec.partition_bridge_gbps
    bridged = bool(crossing.any())
    n = len(sms)
    s = np.ones(n)
    rate = np.zeros(n)
    prev = np.zeros(n)
    active = np.ones(n, dtype=bool)
    for it in range(1, _MAX_FIXPOINT_ITERS + 1):
        if not active.any():
            break
        damping = _DAMPING / (1.0 + it / 60.0)
        r = np.minimum(np.minimum(littles / s, hard),
                       np.minimum(budget / s, static))
        rho = np.maximum(np.minimum(r / gpc_cap, _RHO_CLAMP),
                         np.minimum(r / chan_cap, _RHO_CLAMP))
        if bridged:
            rho = np.where(crossing,
                           np.maximum(rho, np.minimum(r / bridge_cap,
                                                      _RHO_CLAMP)),
                           rho)
        target = 1.0 + rho ** 8 / (1.0 - rho)
        conv = (it > 1) & (np.abs(r - prev) <= _RATE_TOL
                           * np.maximum(r, 1.0))
        rate = np.where(active, r, rate)
        s = np.where(active, s + damping * (target - s), s)
        prev = np.where(active, r, prev)
        active = active & ~conv
    return rate


def vectorized_single_sm_slice_bandwidth(gpu, sm: int,
                                         slice_id: int) -> float:
    """One SM streaming to one slice (Fig 9b / Fig 12), GB/s."""
    return float(vectorized_bandwidth_distribution(gpu, slice_id, [sm])[0])


def solve_traffic(gpu, traffic: dict, kind: AccessKind = AccessKind.READ,
                  l2_hit: bool = True) -> float:
    """Total steady-state GB/s for ``{sm: [home slices]}`` traffic.

    Runs the shared :func:`repro.noc.flows.solve_arrays` core on the
    arrays of :func:`traffic_arrays`, filling with the event-driven
    :class:`repro.noc.flows.FillPlan` (bit-identical to the golden
    model's dense fill).
    """
    rates, _flow_inf, _iters, _converged = solve_arrays(
        *traffic_arrays(gpu, traffic, kind, l2_hit), event_fill=True)
    return sum(rates.tolist())


def traffic_arrays(gpu, traffic: dict, kind: AccessKind = AccessKind.READ,
                   l2_hit: bool = True) -> tuple:
    """:func:`repro.noc.flows.solve_arrays`' inputs for a traffic pattern.

    The exact flat arrays ``FlowNetwork._arrays`` would build for
    ``TopologyGraph.build(traffic, kind, l2_hit)`` — same link registry
    insertion order, same per-flow link order, same capacities.
    """
    if not traffic:
        raise SolverError("traffic pattern is empty")
    top = gpu.topology
    spec = gpu.spec
    geo = _geometry(top.latency)
    scale = top._kind_scale(kind)
    items = [(sm, list(slices)) for sm, slices in sorted(traffic.items())]
    for sm, slices in items:
        if not 0 <= sm < spec.num_sms:
            gpu.hier.sm_info(sm)
        if not slices:
            raise SolverError(f"SM {sm} has no target slices")
        for home in slices:
            if not 0 <= home < spec.num_slices:
                gpu.hier.slice_info(home)

    sm_list = [sm for sm, _ in items]
    all_slices = sorted({s for _, slices in items for s in slices})
    col = {s: j for j, s in enumerate(all_slices)}
    sm_idx = np.asarray(sm_list, dtype=int)
    sl_idx = np.asarray(all_slices, dtype=int)
    rt, service_hit = _rt_seconds_matrix(gpu, sm_idx, sl_idx, l2_hit)
    if l2_hit:
        service_mat = service_hit
    else:  # a miss path targets the home slice itself
        service_mat = np.broadcast_to(sl_idx[None, :], service_hit.shape)
    slice_caps = _slice_capacities(
        top, sorted(set(np.unique(service_mat).tolist())))

    has_cpc = bool(spec.tpcs_per_cpc) and top._cpc_capacity(kind) > 0
    tpc_cap = top._tpc_capacity(kind)
    cpc_cap = top._cpc_capacity(kind)
    dram_cap = (spec.mem_bandwidth_gbps * spec.dram_efficiency
                / spec.num_mps)
    hard = scale * spec.flow_cap_gbps

    link_caps: list = []
    link_conc: list = []
    link_littles: list = []
    link_index: dict = {}

    def add_link(key, cap, conc=False, littles=False) -> int:
        idx = link_index.get(key)
        if idx is None:
            idx = len(link_caps)
            link_index[key] = idx
            link_caps.append(cap)
            link_conc.append(conc)
            link_littles.append(littles)
        return idx

    pair_flow: list = []
    pair_link: list = []
    littles_caps: list = []
    seen_flows: set = set()
    num_flows = 0
    for i, (sm, slices) in enumerate(items):
        row_rt = rt[i]
        row_sv = service_mat[i]
        sm_tpc = int(geo.sm_tpc[sm])
        sm_cpc = int(geo.sm_cpc[sm])
        sm_gpc = int(geo.sm_gpc[sm])
        sm_part = int(geo.sm_part[sm])
        mean_rt = sum(row_rt[col[s]] for s in slices) / len(slices)
        budget = scale * spec.sm_mshr_bytes / mean_rt / units.GB
        mshr = add_link(("mshr", sm), budget, littles=True)
        head = [mshr, add_link(("tpc", sm_tpc), tpc_cap)]
        if has_cpc:
            head.append(add_link(("cpc", sm_cpc), cpc_cap))
        head.append(add_link(("gpc", sm_gpc), spec.gpc_out_gbps, conc=True))
        for home in slices:
            if (sm, home) in seen_flows:
                raise SolverError(f"duplicate flow 'f:sm{sm}->s{home}'")
            seen_flows.add((sm, home))
            j = col[home]
            sv = int(row_sv[j])
            sv_mp = sv // spec.slices_per_mp
            sv_part = int(geo.sl_part[sv])
            crossing = sm_part != sv_part
            links = list(head)
            links.append(add_link(("chan", sm_gpc, sv_mp),
                                  spec.gpc_mp_channel_gbps, conc=True))
            if crossing:
                links.append(add_link(("bridge", sm_part, sv_part),
                                      spec.partition_bridge_gbps, conc=True))
            links.append(add_link(("mp", sv_mp), spec.mp_input_gbps))
            links.append(add_link(("slice", sv), slice_caps[sv]))
            if not l2_hit:
                links.append(add_link(("dram", sv_mp), dram_cap))
            in_flight = spec.flow_mshr_bytes
            if crossing:
                in_flight += spec.noc_buffer_bytes
            littles_caps.append(scale * in_flight / row_rt[j] / units.GB)
            pair_flow.extend([num_flows] * len(links))
            pair_link.extend(links)
            num_flows += 1

    return (np.asarray(pair_flow, dtype=np.int64),
            np.asarray(pair_link, dtype=np.int64),
            np.array(littles_caps),
            np.full(num_flows, hard),
            np.array(link_caps),
            np.array(link_conc),
            np.array(link_littles))


def vectorized_group_to_slice_bandwidth(gpu, sms, slice_id: int) -> float:
    """A group of SMs streaming to one slice (Fig 9c)."""
    sms = list(sms)
    if not sms:
        raise ConfigurationError("need at least one SM")
    return solve_traffic(gpu, {sm: [slice_id] for sm in sms})


def vectorized_aggregate_l2_bandwidth(gpu) -> float:
    """All SMs streaming to all slices, hitting in L2 (Fig 9a), GB/s."""
    traffic = {sm: gpu.hier.all_slices for sm in gpu.hier.all_sms}
    return solve_traffic(gpu, traffic)


def vectorized_aggregate_memory_bandwidth(gpu) -> float:
    """All SMs streaming with L2 misses: off-chip bandwidth (Fig 9a)."""
    traffic = {sm: gpu.hier.all_slices for sm in gpu.hier.all_sms}
    return solve_traffic(gpu, traffic, l2_hit=False)


def vectorized_saturation_curve(gpu, slice_id: int, sms,
                                counts=None) -> dict:
    """Slice bandwidth as more SMs target it (Fig 14): {n: GB/s}."""
    sms = list(sms)
    counts = list(counts) if counts is not None else list(
        range(1, len(sms) + 1))
    if not sms:
        raise ConfigurationError("need a non-empty SM pool")
    for n in counts:
        if not 1 <= n <= len(sms):
            raise ConfigurationError(f"cannot use {n} SMs from a pool of "
                                     f"{len(sms)}")
    return {n: solve_traffic(gpu, {sm: [slice_id] for sm in sms[:n]})
            for n in counts}
