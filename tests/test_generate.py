import pytest

from nrpbench import GenSpec, LevelSpec, builtin_names, builtin_spec, generate
from nrpbench.generate import spec_from_dict

EXPECTED_SIZES = {
    "NRP-1": (140, 100),
    "NRP-2": (620, 500),
    "NRP-3": (1500, 500),
    "NRP-4": (3250, 750),
    "NRP-5": (1500, 1000),
}


def test_builtin_names():
    assert builtin_names() == ["NRP-1", "NRP-2", "NRP-3", "NRP-4", "NRP-5"]
    assert builtin_spec("nrp-1") is builtin_spec("NRP-1")
    with pytest.raises(ValueError) as exc:
        builtin_spec("NRP-9")
    assert "NRP-1" in str(exc.value)


def test_builtin_recipes():
    s1 = builtin_spec("NRP-1")
    assert [(lv.count, lv.cost_min, lv.cost_max, lv.max_children) for lv in s1.levels] \
        == [(20, 1, 5, 8), (40, 2, 8, 2), (80, 5, 10, 0)]
    assert (s1.customer_count, s1.request_min, s1.request_max) == (100, 1, 5)
    assert (s1.profit_min, s1.profit_max) == (1, 30)

    s4 = builtin_spec("NRP-4")
    assert [(lv.count, lv.cost_min, lv.cost_max, lv.max_children) for lv in s4.levels] \
        == [(250, 1, 5, 8), (500, 2, 7, 6), (750, 3, 9, 4), (1000, 4, 10, 2), (750, 5, 15, 0)]
    assert s4.customer_count == 750

    s5 = builtin_spec("NRP-5")
    assert [(lv.count, lv.cost_min, lv.cost_max, lv.max_children) for lv in s5.levels] \
        == [(500, 1, 3, 4), (500, 2, 2, 4), (500, 3, 5, 0)]
    assert (s5.customer_count, s5.request_min, s5.request_max) == (1000, 1, 1)


def test_generated_sizes():
    for name, (n_req, n_cust) in EXPECTED_SIZES.items():
        inst = generate(builtin_spec(name), seed=3)
        assert inst.n_requirements == n_req
        assert inst.n_customers == n_cust


def test_generation_is_deterministic():
    spec = builtin_spec("NRP-1")
    assert generate(spec, 11) == generate(spec, 11)
    assert generate(spec, 11) != generate(spec, 12)


def test_values_stay_in_declared_ranges():
    spec = builtin_spec("NRP-1")
    for seed in range(1, 6):
        inst = generate(spec, seed)
        pos = 0
        for lv in spec.levels:
            for r in inst.requirements[pos:pos + lv.count]:
                assert lv.cost_min <= r.cost <= lv.cost_max
            pos += lv.count
        for c in inst.customers:
            assert 1 <= c.profit <= 30
            assert spec.request_min <= len(c.requests) <= spec.request_max
            assert len(set(c.requests)) == len(c.requests)


def test_edges_adjacent_levels_only_bounded_degree():
    spec = builtin_spec("NRP-2")
    inst = generate(spec, 5)
    starts = [0]
    for lv in spec.levels:
        starts.append(starts[-1] + lv.count)
    level_of = {}
    for li in range(len(spec.levels)):
        for r in range(starts[li] + 1, starts[li + 1] + 1):
            level_of[r] = li
    degree: dict[int, int] = {}
    for p, q in inst.graph.edges:
        assert level_of[q] == level_of[p] + 1
        degree[p] = degree.get(p, 0) + 1
    for p, d in degree.items():
        assert d <= spec.levels[level_of[p]].max_children
    # children of one parent are distinct
    seen = set()
    for e in inst.graph.edges:
        assert e not in seen
        seen.add(e)


def test_requests_exactly_one_for_single_request_family():
    inst = generate(builtin_spec("NRP-5"), 2)
    assert all(len(c.requests) == 1 for c in inst.customers)


def test_spec_from_dict():
    data = {
        "name": "mini",
        "levels": [
            {"count": 3, "cost_min": 1, "cost_max": 4, "max_children": 2},
            {"count": 5, "cost_min": 2, "cost_max": 6, "max_children": 0},
        ],
        "customer_count": 7,
        "request_min": 1,
        "request_max": 3,
    }
    spec = spec_from_dict(data)
    assert spec == GenSpec("mini", (LevelSpec(3, 1, 4, 2), LevelSpec(5, 2, 6, 0)),
                           customer_count=7, request_min=1, request_max=3)
    inst = generate(spec, 1)
    assert (inst.n_requirements, inst.n_customers) == (8, 7)
    # a whole float passes; a fraction is refused, not cut down
    assert spec_from_dict({**data, "customer_count": 7.0}) == spec
    for key, value in (("customer_count", 2.7), ("request_max", 2.5), ("customer_count", -5)):
        with pytest.raises(ValueError, match=key):
            spec_from_dict({**data, key: value})
    levels = [{**data["levels"][0], "count": 3.5}, data["levels"][1]]
    with pytest.raises(ValueError, match="count"):
        spec_from_dict({**data, "levels": levels})


def test_spec_validation():
    last = LevelSpec(5, 1, 3, 0)
    with pytest.raises(ValueError):
        GenSpec("x", (LevelSpec(2, 1, 3, 0), last), 5, 1, 2)  # inner level degree 0
    with pytest.raises(ValueError):
        GenSpec("x", (LevelSpec(2, 1, 3, 2),), 5, 1, 2)  # last level degree != 0
    with pytest.raises(ValueError):
        GenSpec("x", (last,), 5, 1, 9)  # request_max above total requirements
    with pytest.raises(ValueError):
        GenSpec("x", (LevelSpec(2, 4, 3, 0),), 5, 1, 2)  # cost_min > cost_max
    with pytest.raises(ValueError):
        GenSpec("x", (last,), 5, 1, 2, profit_min=5, profit_max=4)
    with pytest.raises(ValueError, match="customer_count"):
        GenSpec("x", (last,), -5, 1, 2)
    assert GenSpec("x", (last,), 0, 1, 2).customer_count == 0
    with pytest.raises(ValueError, match="at least one level"):
        GenSpec("x", (), 5, 1, 1)
    with pytest.raises(ValueError, match="level count must be positive"):
        GenSpec("x", (LevelSpec(0, 1, 3, 0),), 5, 1, 1)


def test_spec_refuses_totals_the_instance_check_refuses():
    # the largest possible totals, count * cost_max summed and customers * profit_max,
    # must stay below 2**53, as an instance's totals must
    edge = 2**53
    assert GenSpec("x", (LevelSpec(1, 1, edge - 1, 0),), 1, 1, 1).levels[0].cost_max == edge - 1
    with pytest.raises(ValueError, match="total cost 9007199254740992 is 2"):
        GenSpec("x", (LevelSpec(1, 1, 4, 2), LevelSpec(2, 1, edge // 2 - 2, 0)), 1, 1, 1)
    assert GenSpec("x", (LevelSpec(1, 1, 3, 0),), 3, 1, 1, profit_max=edge // 3).customer_count == 3
    with pytest.raises(ValueError, match="total profit 9007199254740992 is 2"):
        GenSpec("x", (LevelSpec(1, 1, 3, 0),), 2, 1, 1, profit_max=edge // 2)


def test_different_seeds_differ_overwhelmingly():
    spec = builtin_spec("NRP-1")
    seen = {write_signature(generate(spec, s)) for s in range(10)}
    assert len(seen) == 10


def write_signature(inst):
    return tuple(r.cost for r in inst.requirements) + tuple(
        c.profit for c in inst.customers)
