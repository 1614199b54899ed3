"""Max-min fair bandwidth allocation over a shared-link graph.

The bandwidth microbenchmark (paper Algorithm 2) saturates the NoC with
many concurrent request streams.  We model steady-state throughput as a
*max-min fair* allocation of flows over capacitated links (progressive
filling, Bertsekas & Gallager): all unfrozen flows grow at an equal rate
until some link saturates; flows crossing that link freeze; repeat.

Two refinements reproduce real-GPU effects:

* **Per-flow caps** — a flow cannot exceed its Little's-law limit
  (outstanding bytes / round-trip time) nor its per-destination sector
  throughput; this is what makes a single SM top out at ~34 GB/s per L2
  slice on V100 (Fig 9b) and far-partition flows slower on A100 (Fig 12).
* **Concentrator queueing** — links flagged as concentrators (GPC output
  ports, partition bridges) inflate round-trip time as they load up,
  shrinking the Little's-law caps of flows through them (and of *budget*
  links modelling each SM's MSHR pool).  The solver iterates
  allocation <-> inflation to a fixed point with decaying damping (the
  fill map is discontinuous at link saturation, so fixed-step iteration
  can limit-cycle).  This produces the partial GPC_l speedup of Fig 10
  while leaving hard links (slice ingress) exactly saturable (Fig 9c's
  tight 85 GB/s).

The solver core is vectorised with numpy; aggregate experiments build
~10k flows and would be prohibitively slow with per-flow Python loops.
Both measurement engines run the one fixed-point loop,
:func:`solve_arrays`, and differ only in the water-filling inside it:

* :func:`progressive_fill` is the golden model (:meth:`FlowNetwork.solve`):
  each round repeats its array operations over every (flow, link) pair;
* :class:`FillPlan` is the vectorized engine's event-driven fill, bit for
  bit the same rates, whose rounds touch only the links and the pairs of
  the flows they freeze (it uses that all unfrozen flows share one rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError

_EPS = 1e-9
_MAX_FIXPOINT_ITERS = 400
_RATE_TOL = 1e-4          # relative steady-state tolerance on flow rates
_DAMPING = 0.25
_RHO_CLAMP = 0.98


def _inflation_curve(rho: np.ndarray) -> np.ndarray:
    """Queueing inflation ``1 + rho^8/(1-rho)``.

    Negligible below ~65% load (a lone SM must not self-throttle, and an
    idealised FIFO adds essentially no queueing delay there — the
    cycle-level cross-validation in ``tests/test_model_crossvalidation``
    holds both models to the documented low-load agreement), sharply
    rising near saturation so a saturated concentrator settles at
    ~90-95% of its wire capacity — matching Fig 10's partial GPC_l
    speedups.  An earlier ``rho^3`` calibration inflated round trips 75%
    at 64% load, drifting the solver ~30% below the cycle simulator on
    intermediate-load patterns.  Clamped to avoid the singularity.
    """
    rho = np.minimum(rho, _RHO_CLAMP)
    return 1.0 + rho ** 8 / (1.0 - rho)


def progressive_fill(caps, capacities, pair_flow, pair_link,
                     num_links) -> np.ndarray:
    """Max-min fair water-filling, vectorised.

    Every round grows all unfrozen flows by the largest uniform step
    no flow cap or link capacity forbids, then freezes flows that hit
    their cap or a saturated link.  Terminates: each round freezes at
    least one flow.
    """
    num_flows = caps.shape[0]
    rates = np.zeros(num_flows)
    active = np.ones(num_flows, dtype=bool)
    residual = capacities.astype(float).copy()
    while active.any():
        active_pairs = active[pair_flow]
        counts = np.bincount(pair_link[active_pairs], minlength=num_links)
        headroom = caps[active] - rates[active]
        step = headroom.min() if headroom.size else math.inf
        busy = counts > 0
        if busy.any():
            step = min(step, (residual[busy] / counts[busy]).min())
        if not math.isfinite(step):
            break
        step = max(step, 0.0)
        rates[active] += step
        residual -= step * counts
        saturated = residual <= _EPS
        hit_saturated = np.zeros(num_flows, dtype=bool)
        sat_pairs = saturated[pair_link] & active_pairs
        hit_saturated[pair_flow[sat_pairs]] = True
        frozen_now = hit_saturated | (rates >= caps - _EPS)
        still_active = active & ~frozen_now
        if (still_active == active).all():
            # numerical guard: force-freeze the tightest flow
            idx = np.flatnonzero(active)
            tightest = idx[np.argmin(caps[idx] - rates[idx])]
            still_active[tightest] = False
        active = still_active
    return rates


def _csr_ptr(keys, size: int) -> np.ndarray:
    """Row pointers of a CSR index over ``keys`` in ``range(size)``."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
    return ptr


def _rows(ptr, values, keys) -> np.ndarray:
    """``values[ptr[k]:ptr[k + 1]]`` concatenated over sorted ``keys``."""
    first, last = keys[0], keys[-1]
    if last - first + 1 == keys.size:   # a run of keys is one slice
        return values[ptr[first]:ptr[last + 1]]
    starts = ptr[keys]
    lengths = ptr[keys + 1] - starts
    ends = np.cumsum(lengths)
    return values[np.repeat(starts - (ends - lengths), lengths)
                  + np.arange(ends[-1])]


class FillPlan:
    """Event-driven :func:`progressive_fill` over one fixed pair set.

    Bit-identical to the dense fill, because every unfrozen flow has had
    the same sequence of ``+= step`` added to it and so holds one rate,
    ``level``.  Rounding ``c - level`` is monotone in ``c``, so the
    smallest headroom is the cap of the first unfrozen flow in cap order
    minus ``level``, and the cap test ``level >= caps - _EPS`` freezes a
    prefix of that order (``searchsorted``).  Per-link counts of
    unfrozen pairs stay exact integers: each freeze subtracts the frozen
    flows' pairs.  The residual update, the saturation test, the
    force-freeze guard and the non-finite-step exit are the dense fill's
    own expressions; flows still unfrozen at that exit take ``level``.

    The CSR index (link -> flows, flow -> links) is O(pairs) and built
    once, so the fixed point reuses it for every fill; a round's array
    work is then over the links, a few flow masks and the pairs of the
    flows it freezes, not over every pair.
    """

    def __init__(self, pair_flow, pair_link, num_flows: int,
                 num_links: int):
        self.num_flows = num_flows
        self.num_links = num_links
        self._link_ptr = _csr_ptr(pair_link, num_links)
        self._counts = np.diff(self._link_ptr)
        self._link_flows = pair_flow[np.argsort(pair_link, kind="stable")]
        self._flow_ptr = _csr_ptr(pair_flow, num_flows)
        self._flow_links = pair_link[np.argsort(pair_flow, kind="stable")]

    def fill(self, caps, capacities) -> np.ndarray:
        """Max-min fair rates for ``caps`` (no NaN) over ``capacities``."""
        num_flows = self.num_flows
        rates = np.zeros(num_flows)
        active = np.ones(num_flows, dtype=bool)
        residual = capacities.astype(float).copy()
        counts = self._counts.copy()
        order = np.argsort(caps)         # equal caps are interchangeable
        rank = np.empty(num_flows, dtype=np.int64)
        rank[order] = np.arange(num_flows)
        sorted_caps = caps[order]
        thresholds = sorted_caps - _EPS       # nondecreasing, like caps
        active_in_order = np.ones(num_flows, dtype=bool)
        level = 0.0
        remaining = num_flows
        head = 0        # first unfrozen flow in cap order
        capped = 0      # order[:capped] already passed the cap test
        while remaining:
            head += int(active_in_order[head:].argmax())
            step = sorted_caps[head] - level
            busy = counts > 0
            if busy.any():
                step = min(step, (residual[busy] / counts[busy]).min())
            if not math.isfinite(step):
                break
            step = max(step, 0.0)
            level += step
            residual -= step * counts
            hit = np.zeros(num_flows, dtype=bool)
            reached = int(thresholds.searchsorted(level, "right"))
            hit[order[capped:reached]] = True
            capped = reached              # level never falls
            saturated = ((residual <= _EPS) & busy).nonzero()[0]
            if saturated.size:
                hit[_rows(self._link_ptr, self._link_flows,
                          saturated)] = True
            frozen = (hit & active).nonzero()[0]
            if not frozen.size:
                # numerical guard: force-freeze the tightest flow
                idx = np.flatnonzero(active)
                frozen = idx[np.argmin(caps[idx] - level)][None]
            active[frozen] = False
            active_in_order[rank[frozen]] = False
            rates[frozen] = level
            remaining -= frozen.size
            counts -= np.bincount(
                _rows(self._flow_ptr, self._flow_links, frozen),
                minlength=self.num_links)
        rates[active] = level             # left by a non-finite step
        return rates


def solve_arrays(pair_flow, pair_link, littles_caps, hard_caps, capacity,
                 is_conc, is_littles, event_fill: bool = False) -> tuple:
    """The solver core on flat arrays: (rates, flow_inf, iters, converged).

    Shared by :meth:`FlowNetwork.solve` and the vectorized measurement
    engine (``repro.core.fastpath.bandwidth``), which assembles the same
    arrays directly from the traffic pattern — both paths therefore run
    the identical fixed-point iteration.  The golden model fills with
    :func:`progressive_fill`; the fast path sets ``event_fill`` and fills
    through one :class:`FillPlan`, which gives the same rates bit for bit.
    """
    for name, values in (("littles cap", littles_caps),
                         ("hard cap", hard_caps), ("capacity", capacity)):
        if np.isnan(values).any():
            raise SolverError(f"{name} array holds NaN")
    num_flows = littles_caps.shape[0]
    num_links = capacity.shape[0]
    plan = (FillPlan(pair_flow, pair_link, num_flows, num_links)
            if event_fill else None)
    flow_inf = np.ones(num_flows)
    link_inf = np.ones(num_links)
    prev_rates = np.zeros(num_flows)
    rates = prev_rates
    converged = False
    iteration = 0
    for iteration in range(1, _MAX_FIXPOINT_ITERS + 1):
        damping = _DAMPING / (1.0 + iteration / 60.0)
        eff_capacity = np.where(is_littles, capacity / link_inf, capacity)
        caps = np.minimum(littles_caps / flow_inf, hard_caps)
        if plan is None:
            rates = progressive_fill(caps, eff_capacity, pair_flow,
                                     pair_link, num_links)
        else:
            rates = plan.fill(caps, eff_capacity)
        load = np.bincount(pair_link, weights=rates[pair_flow],
                           minlength=num_links)
        util = load / capacity
        conc_rho = np.where(is_conc, np.minimum(util, _RHO_CLAMP), 0.0)
        # worst concentrator utilisation along each flow's path
        flow_rho = np.zeros(num_flows)
        np.maximum.at(flow_rho, pair_flow, conc_rho[pair_link])
        flow_target = _inflation_curve(flow_rho)
        # budget links inherit the worst inflation among member flows
        link_target = np.ones(num_links)
        np.maximum.at(link_target, pair_link, flow_target[pair_flow])
        link_target = np.where(is_littles, link_target, 1.0)

        flow_inf += damping * (flow_target - flow_inf)
        link_inf += damping * (link_target - link_inf)

        scale = max(rates.max(initial=0.0), 1.0)
        if iteration > 1 and np.abs(rates - prev_rates).max() <= _RATE_TOL * scale:
            converged = True
            break
        prev_rates = rates
    return rates, flow_inf, iteration, converged


@dataclass
class Link:
    """A shared capacity in the NoC (GB/s).

    ``littles`` links model a *budget* rather than a wire: an SM's MSHR
    pool sustains ``capacity / inflation`` GB/s once queueing on
    downstream concentrators inflates its round-trip time.  Their
    effective capacity is recomputed each solver iteration.
    """
    name: str
    capacity_gbps: float
    concentrator: bool = False
    littles: bool = False

    def __post_init__(self):
        if not self.capacity_gbps > 0:      # NaN fails this test too
            raise SolverError(f"link {self.name!r} needs positive capacity")
        if self.concentrator and self.littles:
            raise SolverError(f"link {self.name!r} cannot be both kinds")


@dataclass
class Flow:
    """One (source, destination) traffic stream.

    ``littles_cap_gbps`` shrinks when concentrator latency inflates (the
    MSHR-limited part); ``hard_cap_gbps`` never shrinks (per-destination
    sector throughput); ``demand_gbps`` bounds offered load.
    """
    name: str
    links: tuple
    littles_cap_gbps: float = math.inf
    hard_cap_gbps: float = math.inf
    demand_gbps: float = math.inf

    def __post_init__(self):
        for kind, value in (("littles", self.littles_cap_gbps),
                            ("hard", self.hard_cap_gbps),
                            ("demand", self.demand_gbps)):
            if math.isnan(value):
                raise SolverError(f"flow {self.name!r} has a NaN {kind} cap")

    def base_cap(self, inflation: float) -> float:
        """Flow cap when its path's round-trip time is inflated by x."""
        if inflation < 1.0:
            raise SolverError(f"inflation {inflation} < 1 for flow {self.name}")
        return min(self.littles_cap_gbps / inflation, self.hard_cap_gbps,
                   self.demand_gbps)


@dataclass
class SolverResult:
    """Allocation produced by :meth:`FlowNetwork.solve`."""
    rates_gbps: dict            # flow name -> GB/s
    link_utilization: dict      # link name -> rho in [0, 1]
    inflation: dict             # flow name -> round-trip inflation factor
    iterations: int
    converged: bool = True      # False: stopped at the damped attractor

    @property
    def total_gbps(self) -> float:
        return sum(self.rates_gbps.values())

    def rate(self, name: str) -> float:
        return self.rates_gbps[name]


class FlowNetwork:
    """A capacitated link graph plus the flows crossing it."""

    def __init__(self):
        self._links: dict[str, Link] = {}
        self._flows: dict[str, Flow] = {}

    def add_link(self, name: str, capacity_gbps: float,
                 concentrator: bool = False, littles: bool = False) -> Link:
        """Register a shared link; re-adding the same name must agree."""
        existing = self._links.get(name)
        if existing is not None:
            if (math.isnan(capacity_gbps)
                    or abs(existing.capacity_gbps - capacity_gbps) > _EPS):
                raise SolverError(
                    f"link {name!r} re-added with different capacity")
            return existing
        link = Link(name, capacity_gbps, concentrator, littles)
        self._links[name] = link
        return link

    def add_flow(self, name: str, links, littles_cap_gbps: float = math.inf,
                 hard_cap_gbps: float = math.inf,
                 demand_gbps: float = math.inf) -> Flow:
        if name in self._flows:
            raise SolverError(f"duplicate flow {name!r}")
        links = tuple(links)
        if not links:
            raise SolverError(f"flow {name!r} crosses no links")
        for link in links:
            if link not in self._links:
                raise SolverError(
                    f"flow {name!r} references unknown link {link!r}")
        flow = Flow(name, links, littles_cap_gbps, hard_cap_gbps, demand_gbps)
        self._flows[name] = flow
        return flow

    @property
    def links(self) -> dict:
        return dict(self._links)

    @property
    def flows(self) -> dict:
        return dict(self._flows)

    # ---- array assembly -----------------------------------------------------
    def _arrays(self):
        """Flatten the network into numpy arrays (built once per solve)."""
        flow_list = list(self._flows.values())
        link_list = list(self._links.values())
        link_index = {link.name: i for i, link in enumerate(link_list)}
        pair_flow, pair_link = [], []
        for fi, flow in enumerate(flow_list):
            for lname in flow.links:
                pair_flow.append(fi)
                pair_link.append(link_index[lname])
        return (
            flow_list, link_list,
            np.asarray(pair_flow, dtype=np.int64),
            np.asarray(pair_link, dtype=np.int64),
            np.array([f.littles_cap_gbps for f in flow_list]),
            np.array([min(f.hard_cap_gbps, f.demand_gbps)
                      for f in flow_list]),
            np.array([l.capacity_gbps for l in link_list]),
            np.array([l.concentrator for l in link_list]),
            np.array([l.littles for l in link_list]),
        )

    def solve(self) -> SolverResult:
        """Fixed-point max-min fair allocation with concentrator queueing."""
        if not self._flows:
            return SolverResult({}, {n: 0.0 for n in self._links}, {}, 0)
        (flow_list, link_list, pair_flow, pair_link,
         littles_caps, hard_caps, capacity, is_conc, is_littles) = self._arrays()

        rates, flow_inf, iteration, converged = solve_arrays(
            pair_flow, pair_link, littles_caps, hard_caps, capacity,
            is_conc, is_littles)

        rates_dict = {flow.name: float(rates[i])
                      for i, flow in enumerate(flow_list)}
        load = np.bincount(pair_link, weights=rates[pair_flow],
                           minlength=len(link_list))
        util_dict = {link.name: float(load[i] / capacity[i])
                     for i, link in enumerate(link_list)}
        inf_dict = {flow.name: float(flow_inf[i])
                    for i, flow in enumerate(flow_list)}
        return SolverResult(rates_dict, util_dict, inf_dict, iteration,
                            converged)
