"""Flow solver: max-min fairness properties, caps, concentrators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SolverError
from repro.noc.flows import (_EPS, FillPlan, Flow, FlowNetwork, Link,
                             progressive_fill, solve_arrays)


def make_net():
    return FlowNetwork()


def test_single_flow_hits_link_capacity():
    net = make_net()
    net.add_link("l", 100.0)
    net.add_flow("f", ["l"])
    result = net.solve()
    assert result.rate("f") == pytest.approx(100.0, rel=1e-3)


def test_fair_split_between_equal_flows():
    net = make_net()
    net.add_link("l", 90.0)
    for i in range(3):
        net.add_flow(f"f{i}", ["l"])
    result = net.solve()
    for i in range(3):
        assert result.rate(f"f{i}") == pytest.approx(30.0, rel=1e-3)


def test_hard_cap_binds():
    net = make_net()
    net.add_link("l", 100.0)
    net.add_flow("capped", ["l"], hard_cap_gbps=10.0)
    net.add_flow("free", ["l"])
    result = net.solve()
    assert result.rate("capped") == pytest.approx(10.0, rel=1e-3)
    assert result.rate("free") == pytest.approx(90.0, rel=1e-3)


def test_littles_cap_binds_without_concentrator():
    net = make_net()
    net.add_link("l", 100.0)
    net.add_flow("f", ["l"], littles_cap_gbps=25.0)
    assert net.solve().rate("f") == pytest.approx(25.0, rel=1e-3)


def test_demand_binds():
    net = make_net()
    net.add_link("l", 100.0)
    net.add_flow("f", ["l"], demand_gbps=5.0)
    assert net.solve().rate("f") == pytest.approx(5.0, rel=1e-3)


def test_multi_link_path_bottleneck():
    net = make_net()
    net.add_link("wide", 100.0)
    net.add_link("narrow", 20.0)
    net.add_flow("f", ["wide", "narrow"])
    assert net.solve().rate("f") == pytest.approx(20.0, rel=1e-3)


def test_concentrator_throttles_near_saturation():
    """A saturated concentrator settles at ~90-95% of wire capacity."""
    net = make_net()
    net.add_link("conc", 100.0, concentrator=True)
    for i in range(10):
        net.add_flow(f"f{i}", ["conc"], littles_cap_gbps=50.0)
    total = net.solve().total_gbps
    assert 80.0 <= total <= 100.0


def test_concentrator_transparent_at_low_load():
    net = make_net()
    net.add_link("conc", 1000.0, concentrator=True)
    net.add_flow("f", ["conc"], littles_cap_gbps=50.0)
    assert net.solve().rate("f") == pytest.approx(50.0, rel=0.02)


def test_littles_budget_link_shared():
    """A budget (littles) link fair-shares like a wire at low load."""
    net = make_net()
    net.add_link("budget", 60.0, littles=True)
    net.add_link("a", 100.0)
    net.add_link("b", 100.0)
    net.add_flow("fa", ["budget", "a"])
    net.add_flow("fb", ["budget", "b"])
    result = net.solve()
    assert result.rate("fa") == pytest.approx(30.0, rel=0.02)
    assert result.rate("fb") == pytest.approx(30.0, rel=0.02)


def test_harmonic_fixpoint_matches_theory():
    """Budget + concentrator approximates X with rho settling below 1."""
    net = make_net()
    net.add_link("conc", 100.0, concentrator=True)
    for i in range(7):
        net.add_link(f"budget{i}", 30.0, littles=True)
        net.add_flow(f"f{i}", [f"budget{i}", "conc"])
    result = net.solve()
    # demand 210 >> 100: settles high on the concentrator but below wire
    assert 70.0 <= result.total_gbps <= 100.0
    assert result.link_utilization["conc"] <= 1.0 + 1e-6


def test_duplicate_flow_rejected():
    net = make_net()
    net.add_link("l", 10.0)
    net.add_flow("f", ["l"])
    with pytest.raises(SolverError):
        net.add_flow("f", ["l"])


def test_unknown_link_rejected():
    net = make_net()
    with pytest.raises(SolverError):
        net.add_flow("f", ["ghost"])


def test_empty_path_rejected():
    net = make_net()
    with pytest.raises(SolverError):
        net.add_flow("f", [])


def test_relink_capacity_mismatch_rejected():
    net = make_net()
    net.add_link("l", 10.0)
    with pytest.raises(SolverError):
        net.add_link("l", 20.0)
    # re-adding with same capacity is idempotent
    assert net.add_link("l", 10.0).capacity_gbps == 10.0
    net.add_link("wide", math.inf)
    assert net.add_link("wide", math.inf).capacity_gbps == math.inf


def test_invalid_link_rejected():
    with pytest.raises(SolverError):
        Link("bad", 0.0)
    with pytest.raises(SolverError):
        Link("bad", 10.0, concentrator=True, littles=True)


def test_nan_link_capacity_rejected():
    """A NaN capacity used to pass ``<= 0`` and zero unrelated flows."""
    with pytest.raises(SolverError):
        Link("a", math.nan)
    net = make_net()
    with pytest.raises(SolverError):
        net.add_link("a", math.nan)
    net.add_link("b", 10.0)
    with pytest.raises(SolverError):
        net.add_link("b", math.nan)
    net.add_flow("g", ["b"])
    result = net.solve()
    assert result.rate("g") == pytest.approx(10.0, rel=1e-3)


@pytest.mark.parametrize("field", ["littles_cap_gbps", "hard_cap_gbps",
                                   "demand_gbps"])
def test_nan_flow_cap_rejected(field):
    with pytest.raises(SolverError):
        Flow("f", ("l",), **{field: math.nan})
    net = make_net()
    net.add_link("l", 10.0)
    with pytest.raises(SolverError):
        net.add_flow("f", ["l"], **{field: math.nan})
    assert not net.flows


@pytest.mark.parametrize("array", ["littles_caps", "hard_caps", "capacity"])
def test_solve_arrays_rejects_nan(array):
    arrays = {"littles_caps": np.array([5.0, math.inf]),
              "hard_caps": np.array([math.inf, math.inf]),
              "capacity": np.array([10.0, 10.0])}
    arrays[array][0] = math.nan
    for event_fill in (False, True):
        with pytest.raises(SolverError):
            solve_arrays(np.array([0, 0, 1]), np.array([0, 1, 1]),
                         arrays["littles_caps"], arrays["hard_caps"],
                         arrays["capacity"], np.zeros(2, dtype=bool),
                         np.zeros(2, dtype=bool), event_fill=event_fill)


def test_flow_base_cap_validates_inflation():
    flow = Flow("f", ("l",), littles_cap_gbps=10.0)
    with pytest.raises(SolverError):
        flow.base_cap(0.5)


def test_empty_network_solves():
    result = make_net().solve()
    assert result.total_gbps == 0.0


# ---- hypothesis: max-min fairness invariants --------------------------------

@settings(max_examples=30, deadline=None)
@given(
    capacities=st.lists(st.floats(10.0, 200.0), min_size=1, max_size=4),
    flow_links=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                                 unique=True),
                        min_size=1, max_size=6),
    caps=st.lists(st.floats(5.0, 300.0), min_size=6, max_size=6),
)
def test_allocation_feasible_and_cap_respecting(capacities, flow_links, caps):
    """No link oversubscribed; no flow exceeds its cap."""
    net = make_net()
    for i, c in enumerate(capacities):
        net.add_link(f"l{i}", c)
    flows = []
    for fi, links in enumerate(flow_links):
        links = [f"l{i % len(capacities)}" for i in links]
        net.add_flow(f"f{fi}", links, hard_cap_gbps=caps[fi])
        flows.append((f"f{fi}", links, caps[fi]))
    result = net.solve()
    load = {f"l{i}": 0.0 for i in range(len(capacities))}
    for name, links, cap in flows:
        rate = result.rate(name)
        assert 0.0 <= rate <= cap + 1e-6
        for l in set(links):
            load[l] += rate
    for i, c in enumerate(capacities):
        assert load[f"l{i}"] <= c + 1e-6


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), capacity=st.floats(20.0, 200.0))
def test_symmetric_flows_get_equal_rates(n, capacity):
    net = make_net()
    net.add_link("l", capacity)
    for i in range(n):
        net.add_flow(f"f{i}", ["l"])
    result = net.solve()
    rates = [result.rate(f"f{i}") for i in range(n)]
    assert max(rates) - min(rates) < 1e-6 * max(rates) + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    capacities=st.lists(st.floats(10.0, 200.0), min_size=2, max_size=4),
    paths=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                            unique=True), min_size=2, max_size=8),
    caps=st.lists(st.floats(5.0, 400.0), min_size=8, max_size=8),
)
def test_maxmin_bottleneck_condition(capacities, paths, caps):
    """Max-min optimality: every flow is either at its own cap or has a
    *bottleneck* link — a saturated link on which no other flow gets a
    higher rate.  (This condition uniquely characterises the max-min
    fair allocation for equal-weight flows.)"""
    net = make_net()
    for i, c in enumerate(capacities):
        net.add_link(f"l{i}", c)
    flows = []
    for fi, links in enumerate(paths):
        links = sorted({f"l{i % len(capacities)}" for i in links})
        net.add_flow(f"f{fi}", links, hard_cap_gbps=caps[fi])
        flows.append((f"f{fi}", links, caps[fi]))
    result = net.solve()
    load = {f"l{i}": 0.0 for i in range(len(capacities))}
    max_rate_on = {f"l{i}": 0.0 for i in range(len(capacities))}
    for name, links, _cap in flows:
        for l in links:
            load[l] += result.rate(name)
            max_rate_on[l] = max(max_rate_on[l], result.rate(name))
    cap_of = {f"l{i}": c for i, c in enumerate(capacities)}
    tol = 1e-5
    for name, links, cap in flows:
        rate = result.rate(name)
        at_cap = rate >= cap - tol * max(cap, 1)
        has_bottleneck = any(
            load[l] >= cap_of[l] - tol * cap_of[l]
            and rate >= max_rate_on[l] - tol * max(max_rate_on[l], 1)
            for l in links)
        assert at_cap or has_bottleneck, (name, rate, cap)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), capacity=st.floats(30.0, 150.0),
       cap=st.floats(5.0, 80.0))
def test_pareto_no_unused_headroom(n, capacity, cap):
    """If every flow is below its cap, the shared link must be full."""
    net = make_net()
    net.add_link("l", capacity)
    for i in range(n):
        net.add_flow(f"f{i}", ["l"], hard_cap_gbps=cap)
    result = net.solve()
    total = result.total_gbps
    if all(result.rate(f"f{i}") < cap - 1e-6 for i in range(n)):
        assert total == pytest.approx(capacity, rel=1e-4)
    else:
        assert total == pytest.approx(min(capacity, n * cap), rel=1e-4)


# ---- hypothesis: the event-driven fill is the dense fill, bit for bit -------

#: values at the fill's edges: zero and _EPS-sized caps and capacities
#: (ties with the ``caps - _EPS`` freeze threshold), equal caps, +inf
_EDGES = (0.0, _EPS / 2, _EPS, 2 * _EPS, 1.0, 1.0 + _EPS, math.inf)


def _magnitudes():
    return st.one_of(st.sampled_from(_EDGES), st.floats(1e-3, 1e3),
                     st.floats(1e8, 1e15))


@st.composite
def _mixed_cases(draw):
    num_links = draw(st.integers(1, 5))
    capacities = draw(st.lists(_magnitudes(), min_size=num_links,
                               max_size=num_links))
    # paths may repeat a link, cross none, or leave links uncrossed
    paths = draw(st.lists(st.lists(st.integers(0, num_links - 1),
                                   max_size=4), min_size=1, max_size=8))
    caps = draw(st.lists(_magnitudes(), min_size=len(paths),
                         max_size=len(paths)))
    return caps, capacities, paths


@st.composite
def _rounding_cases(draw):
    """Wide links, each shared by 3-6 flows.

    Once a round's step comes from a link, ``residual - step * count``
    can round to a few ulps above _EPS at these magnitudes, so nothing
    freezes and the force-freeze guard runs.
    """
    capacities = draw(st.lists(st.floats(1e8, 1e15), min_size=4,
                               max_size=8))
    caps, paths = [], []
    for link in range(len(capacities)):
        sharing = draw(st.integers(3, 6))
        caps += draw(st.lists(st.one_of(st.just(math.inf),
                                        st.floats(1e-3, 1e3)),
                              min_size=sharing, max_size=sharing))
        paths += [[link]] * sharing
    return caps, capacities, paths


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(_mixed_cases(), _rounding_cases()))
# equal caps; the second cap's threshold ties the level exactly
@example(case=([0.0, _EPS, _EPS], [1.0], [[0], [0], [0]]))
# a link listed twice by one flow, and an uncrossed link
@example(case=([1.0, math.inf], [10.0, 3.0, 5.0], [[0, 0], [0, 1]]))
# a capacity below _EPS saturates before any flow grows
@example(case=([math.inf, 2.0], [_EPS / 2, 4.0], [[0, 1], [1]]))
# rounding leaves the link unsaturated: the force-freeze guard
@example(case=([0.1, math.inf, math.inf, math.inf], [1e9], [[0]] * 4))
# +inf caps on a +inf link: the non-finite-step exit at level 5
@example(case=([5.0, math.inf], [math.inf], [[0], [0]]))
# a flow crossing no link
@example(case=([math.inf, 3.0], [2.0], [[], [0]]))
def test_event_fill_matches_dense_fill_bitwise(case):
    caps, capacities, paths = case
    pair_flow = np.array([f for f, path in enumerate(paths) for _ in path],
                         dtype=np.int64)
    pair_link = np.array([l for path in paths for l in path],
                         dtype=np.int64)
    num_links = len(capacities)
    plan = FillPlan(pair_flow, pair_link, len(caps), num_links)
    caps = np.array(caps)
    # one plan serves every fill of a fixed point: fill it twice
    for scale in (1.0, 3.0):
        link_caps = np.array(capacities) / scale
        dense = progressive_fill(caps, link_caps, pair_flow, pair_link,
                                 num_links)
        event = plan.fill(caps, link_caps)
        assert event.view(np.int64).tolist() == dense.view(np.int64).tolist()
