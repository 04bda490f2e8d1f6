import tracemalloc
from fractions import Fraction

import pytest

import bruteforce as bf
from nrpbench import (CoverTracker, InvalidInstanceError, budget, builtin_spec, closure,
                      evaluate, generate, make_instance, marginal_cost, rng, validate)


def test_validate_ok(toy):
    assert validate(toy) == []
    assert toy.is_valid
    assert toy.total_cost == 14


def test_validate_cycle():
    inst = make_instance([1, 1], [(1, 2), (2, 1)], [(5, [1])])
    issues = validate(inst)
    assert any(i.kind == "cyclic-dependency" for i in issues)
    # the reported cycle names both nodes
    msg = next(str(i) for i in issues if i.kind == "cyclic-dependency")
    assert "1" in msg and "2" in msg
    with pytest.raises(InvalidInstanceError):
        evaluate(inst, [1])


def test_validate_bad_ids():
    inst = make_instance([1, 1, 1, 1], [], [(5, [99])])
    assert any(i.kind == "bad-id" for i in validate(inst))
    inst2 = make_instance([1, 1], [(1, 7)], [(5, [1])])
    assert any(i.kind == "bad-id" for i in validate(inst2))


def test_validate_non_positive_values():
    inst = make_instance([0, 1], [], [(5, [1])])
    assert any(i.kind == "non-positive-value" for i in validate(inst))
    inst2 = make_instance([1, 1], [], [(0, [1])])
    assert any(i.kind == "non-positive-value" for i in validate(inst2))


def test_closure_basics(toy):
    assert closure(toy, 1) == {1, 2}
    assert closure(toy, 2) == {3}
    assert closure(toy, 3) == {3, 4}


def test_closure_transitive_chain():
    inst = make_instance([1, 1, 1], [(1, 2), (2, 3)], [(5, [3])])
    assert closure(inst, 1) == {1, 2, 3}


def test_closure_idempotent(toy):
    # requesting an already-closed set adds nothing
    inst = make_instance([5, 3, 4, 2], [(1, 2), (3, 4)], [(10, [1, 2])])
    assert closure(inst, 1) == {1, 2}


def test_evaluate_empty(toy):
    sol = evaluate(toy, [])
    assert (sol.cost, sol.profit) == (0, 0)
    assert sol.selected == frozenset() and sol.covered == frozenset()


def test_evaluate_union(toy):
    sol = evaluate(toy, [2, 3])
    assert sol.covered == {3, 4}
    assert sol.cost == 6  # requirement 3 shared, counted once
    assert sol.profit == 14
    full = evaluate(toy, [1, 2, 3])
    assert full.covered == {1, 2, 3, 4}
    assert (full.cost, full.profit) == (14, 24)


def test_evaluate_duplicates_and_order(toy):
    a = evaluate(toy, [3, 2, 2])
    b = evaluate(toy, [2, 3])
    assert a == b


def test_evaluate_bad_id(toy):
    with pytest.raises(ValueError):
        evaluate(toy, [4])


def test_budget_floor(toy):
    assert budget(toy, 0.5) == 7
    assert budget(toy, 1.0) == 14
    assert budget(toy, 0.3) == 4  # floor(4.2)
    assert budget(toy, "0.714") == 9
    assert budget(toy, Fraction(1, 3)) == 4


def test_budget_float_means_decimal():
    inst = make_instance([10, 10], [], [(1, [1])])
    # 0.7 is read as 7/10 exactly, not as the nearest binary double
    assert budget(inst, 0.7) == 14


def test_budget_range(toy):
    for bad in (0, -0.1, 1.2, "2"):
        with pytest.raises(ValueError):
            budget(toy, bad)


def test_marginal_cost(toy):
    assert marginal_cost(toy, evaluate(toy, [2]), 3) == 2
    assert marginal_cost(toy, evaluate(toy, []), 1) == 8
    assert marginal_cost(toy, evaluate(toy, [3]), 2) == 0
    with pytest.raises(ValueError):
        marginal_cost(toy, evaluate(toy, [2]), 2)


def test_evaluate_matches_bruteforce():
    for seed in range(1, 51):
        inst = bf.random_small_instance(seed)
        gen = rng.substream(seed, 91)
        picks = [int(c) + 1 for c in gen.choice(inst.n_customers,
                                                size=inst.n_customers // 2,
                                                replace=False)]
        sol = evaluate(inst, picks)
        covered, cost, profit = bf.brute_eval(inst, picks)
        assert set(sol.covered) == covered
        assert sol.cost == cost
        assert sol.profit == profit


def test_cost_monotone_and_subadditive():
    for seed in range(1, 21):
        inst = bf.random_small_instance(seed)
        gen = rng.substream(seed, 92)
        m = inst.n_customers
        sub = set(int(c) + 1 for c in gen.choice(m, size=m // 3 + 1, replace=False))
        sup = sub | {int(gen.integers(1, m + 1))}
        a, b = evaluate(inst, sub), evaluate(inst, sup)
        assert a.cost <= b.cost and a.profit <= b.profit
        other = set(int(c) + 1 for c in gen.choice(m, size=m // 3 + 1, replace=False))
        u = evaluate(inst, sub | other)
        assert u.cost <= evaluate(inst, sub).cost + evaluate(inst, other).cost


def test_marginal_cost_sums_to_evaluate():
    for seed in range(1, 21):
        inst = bf.random_small_instance(seed)
        gen = rng.substream(seed, 93)
        order = [int(c) + 1 for c in gen.permutation(inst.n_customers)]
        sol = evaluate(inst, [])
        total = 0
        taken = []
        for c in order:
            total += marginal_cost(inst, sol, c)
            taken.append(c)
            sol = evaluate(inst, taken)
        assert total == sol.cost


def test_cover_tracker_matches_marginal():
    for seed in range(1, 21):
        inst = bf.random_small_instance(seed)
        gen = rng.substream(seed, 94)
        tracker = CoverTracker(inst)
        sol = evaluate(inst, [])
        taken = []
        for c in (int(x) + 1 for x in gen.permutation(inst.n_customers)):
            assert tracker.marginal_of(c - 1) == marginal_cost(inst, sol, c)
            tracker.add(c - 1)
            taken.append(c)
            sol = evaluate(inst, taken)
            assert tracker.cost == sol.cost


def test_cover_tracker_rejects_bad_ids(toy):
    # the tracker checks ids as evaluate does: 0 and -1 must not wrap around
    # to the last customers
    for bad in ([0], [-1], [4], [2, 0]):
        for build in (CoverTracker, evaluate):
            with pytest.raises(ValueError, match=f"customer id {bad[-1]} out of range 1..3"):
                build(toy, bad)
    assert CoverTracker(toy, [3, 1]).selected.tolist() == [True, False, True]


def test_evaluate_is_pure(toy):
    assert evaluate(toy, [1, 3]) == evaluate(toy, [1, 3])


def test_level_sizes_must_sum():
    with pytest.raises(ValueError):
        make_instance([1, 1, 1], [], [(1, [1])], level_sizes=[2, 2])


def test_instance_repr(toy):
    text = repr(toy)
    assert "4 requirements" in text and "3 customers" in text


def test_instance_keeps_no_dense_closure():
    # NRP-4@1's closure as a dense float64 customer x requirement matrix
    # would take about 19.5 MB; its index lists take well under 10 MB
    tracemalloc.start()
    try:
        inst = generate(builtin_spec("NRP-4"), 1)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n_customers * inst.n_requirements * 8 > 19e6
    assert retained < 10e6
