"""Subgroup-constrained baby-step giant-step solver."""

import dataclasses
import random
from math import isqrt

import pytest

from subgroupdlp.bsgs import (DegenerateKeyError, DlpInstance, Found,
                              NotInSubgroup, Undecided, _baby_sweep,
                              giant_encodings, kept_giant, solve_in_subgroup,
                              theorem_budget)
from subgroupdlp.catalog import load_builtin
from subgroupdlp.factoring import (SubgroupSpec, divisors, factor,
                                   subgroup_generator)
from subgroupdlp.field import Residue
from subgroupdlp.groups import (AdditiveOracleGroup, CountingGroup,
                                CurveGroup, MultiplicativeGroup, desk_curve)

G31 = AdditiveOracleGroup(31)
H5 = SubgroupSpec(d=5, zeta=Residue(2, 31))  # <2> = {1,2,4,8,16}


def _instance(group, x):
    return DlpInstance.from_secret(group, x)


def test_worked_example_member():
    # n = 3, zeta^n = 8: the giant table is {1: 0, 8: 1, 2: 2, 16: 3}, and
    # the first baby step zeta^0 * Q = 8 hits a = 1, so x = zeta^3 = 8
    result = solve_in_subgroup(_instance(G31, 8), H5)
    assert result == Found(x=Residue(8, 31), a=1, b=0, steps=5)


def test_worked_example_non_member():
    result = solve_in_subgroup(_instance(G31, 3), H5)
    assert result == NotInSubgroup(steps=8)
    assert result.steps == theorem_budget(5)


def test_worked_example_x_equal_one():
    result = solve_in_subgroup(_instance(G31, 1), H5)
    assert isinstance(result, Found)
    assert result.x == Residue(1, 31) and result.a == 0 and result.b == 0


def test_theorem_budget_values():
    assert theorem_budget(1) == 6
    assert theorem_budget(5) == 8
    assert theorem_budget(256) == 36
    assert theorem_budget(255) == 34  # isqrt(255) = 15


def test_exhaustive_small_prime():
    """Every x mod 211 against every subgroup of (Z/211Z)*."""
    p = 211
    group = AdditiveOracleGroup(p)
    f = factor(p - 1)
    for d in divisors(f):
        H = subgroup_generator(p, d, factored=f)
        members = H.elements()
        for x in range(1, p):
            result = solve_in_subgroup(_instance(group, x), H)
            if x in members:
                assert isinstance(result, Found), (d, x)
                assert result.x.value == x
                assert result.steps <= theorem_budget(d)
            else:
                assert result == NotInSubgroup(steps=theorem_budget(d)), (d, x)


def test_collision_witness_is_consistent():
    p = 211
    f = factor(p - 1)
    group = AdditiveOracleGroup(p)
    rng = random.Random(4)
    for d in (6, 30, 70, 210):
        H = subgroup_generator(p, d, factored=f)
        n = next(n for n in range(1, d + 2) if n * n > d)  # isqrt(d) + 1
        for _ in range(10):
            x = pow(H.zeta.value, rng.randrange(d), p)
            result = solve_in_subgroup(_instance(group, x), H)
            assert isinstance(result, Found)
            assert 0 <= result.a <= n and 0 <= result.b <= n
            assert result.x.value == pow(H.zeta.value,
                                         (result.a * n - result.b) % d, p)


def _first_hit_b(x, H):
    """Least b with zeta^b * x = (zeta^n)^a for some a in [0, n]."""
    n = isqrt(H.d) + 1
    k = next(k for k in range(H.d) if pow(H.zeta.value, k, H.p) == x)
    giant = {n * a % H.d for a in range(n + 1)}
    return next(b for b in range(n + 1) if (k + b) % H.d in giant)


@pytest.mark.parametrize("p", [211, 1999])
def test_every_member_is_found_within_the_theorem_budget(p):
    """Every member of every subgroup: the first verified b is at most n-1,
    and the counted multiplies, verification included, stay in budget."""
    counter = CountingGroup(AdditiveOracleGroup(p))
    f = factor(p - 1)
    for d in divisors(f):
        H = subgroup_generator(p, d, factored=f)
        n = isqrt(d) + 1
        for x in H.elements():
            instance = DlpInstance.from_secret(counter, x)
            counter.reset()
            result = solve_in_subgroup(instance, H)
            assert isinstance(result, Found) and result.x.value == x, (d, x)
            assert result.b == _first_hit_b(x, H) <= n - 1, (d, x)
            assert result.steps == (n + 1) + (result.b + 1), (d, x)
            assert counter.scalar_muls == result.steps + 1
            assert counter.scalar_muls <= theorem_budget(d), (d, x)


def test_step_counts_match_counting_group():
    p = 211
    f = factor(p - 1)
    inner = AdditiveOracleGroup(p)
    for d in (1, 2, 14, 105, 210):
        H = subgroup_generator(p, d, factored=f)
        for x in (1, 5, 77, 210):
            counter = CountingGroup(inner)
            instance = DlpInstance.from_secret(counter, x)
            counter.reset()
            result = solve_in_subgroup(instance, H)
            expected = result.steps + (1 if isinstance(result, Found) else 0)
            assert counter.scalar_muls == expected, (d, x)


def test_backends_agree_on_verdicts():
    p = 113
    f = factor(p - 1)
    oracle = AdditiveOracleGroup(p)
    mult = MultiplicativeGroup(227, 147, p)
    for d in divisors(f):
        H = subgroup_generator(p, d, factored=f)
        for x in (1, 2, 45, 112):
            r1 = solve_in_subgroup(_instance(oracle, x), H)
            r2 = solve_in_subgroup(_instance(mult, x), H)
            assert type(r1) is type(r2)
            assert r1.steps == r2.steps
            if isinstance(r1, Found):
                assert (r1.x, r1.a, r1.b) == (r2.x, r2.a, r2.b)


def _backends_of_order_1999():
    # the desk curve has order 1999, and 1999 | 19991 - 1
    return (AdditiveOracleGroup(1999),
            MultiplicativeGroup(19991, 15261, 1999),
            CurveGroup(desk_curve()))


def test_backends_agree_on_every_subgroup_of_order_1999():
    """Same (d, x, cap) gives the same verdict dataclass on all backends."""
    p = 1999  # p - 1 = 2 * 3^3 * 37: sixteen subgroups
    groups = _backends_of_order_1999()
    f = factor(p - 1)
    rng = random.Random(1999)
    for d in divisors(f):
        H = subgroup_generator(p, d, factored=f)
        members = H.elements()
        planted = [pow(H.zeta.value, rng.randrange(d), p) for _ in range(6)]
        outside = [x for x in (rng.randrange(2, p - 1) for _ in range(30))
                   if x not in members][:6]
        for x in [1, p - 1] + planted + outside:
            instances = [DlpInstance.from_secret(g, x) for g in groups]
            for cap in (None, 0, 3):
                oracle, mult, curve = (solve_in_subgroup(i, H, step_cap=cap)
                                       for i in instances)
                assert oracle == mult == curve, (d, x, cap)
                if cap is None:
                    assert isinstance(oracle, Found) == (x in members)


def test_backends_agree_at_the_edges():
    p = 1999
    f = factor(p - 1)
    trivial = subgroup_generator(p, 1, factored=f)
    everything = subgroup_generator(p, p - 1, factored=f)
    for group in _backends_of_order_1999():
        one, minus_one = _instance(group, 1), _instance(group, p - 1)
        assert solve_in_subgroup(one, trivial) == Found(
            x=Residue(1, p), a=0, b=0, steps=4)
        assert solve_in_subgroup(minus_one, trivial) == NotInSubgroup(
            steps=theorem_budget(1))
        found = solve_in_subgroup(minus_one, everything)
        assert isinstance(found, Found) and found.x == Residue(p - 1, p)
        assert found.steps <= theorem_budget(p - 1)
        for H in (trivial, everything):
            for instance in (one, minus_one):
                assert solve_in_subgroup(instance, H, step_cap=0) == \
                    Undecided(steps=0)


def test_curve_group_membership():
    group = CurveGroup(desk_curve())
    p = group.order  # 1999; p-1 = 2 * 3^3 * 37
    f = factor(p - 1)
    H = subgroup_generator(p, 27, factored=f)
    members = H.elements()
    for k in (0, 1, 9, 13, 26):
        x = pow(H.zeta.value, k, p)
        result = solve_in_subgroup(_instance(group, x), H)
        assert isinstance(result, Found) and result.x.value == x
    rng = random.Random(6)
    misses = 0
    while misses < 5:
        x = rng.randrange(1, p)
        if x in members:
            continue
        misses += 1
        result = solve_in_subgroup(_instance(group, x), H)
        assert result == NotInSubgroup(steps=theorem_budget(27))
    assert isinstance(solve_in_subgroup(
        _instance(group, pow(H.zeta.value, 7, p)), H), Found)
    non_member = next(x for x in range(2, p) if x not in members)
    assert not isinstance(solve_in_subgroup(_instance(group, non_member), H),
                          Found)


def test_step_cap_returns_undecided():
    non_member = _instance(G31, 3)
    assert solve_in_subgroup(non_member, H5, step_cap=0) == Undecided(steps=0)
    # cap inside the giant sweep, which runs first (n + 1 = 4 multiplies)
    assert solve_in_subgroup(non_member, H5, step_cap=3) == Undecided(steps=3)
    # cap inside the baby sweep
    assert solve_in_subgroup(non_member, H5, step_cap=5) == Undecided(steps=5)
    # cap exactly at the theorem budget never triggers
    assert solve_in_subgroup(non_member, H5,
                             step_cap=theorem_budget(5)) == NotInSubgroup(8)
    # a negative cap is an error, with or without a shared table
    for shared in (None, giant_encodings(G31, G31.generator, H5)):
        with pytest.raises(ValueError, match="step cap"):
            solve_in_subgroup(non_member, H5, step_cap=-1,
                              shared_giant=shared)


def test_a_capped_baby_sweep_stops_at_its_cap():
    # a cap at the sweep's count leaves the verdict alone; a cap below it
    # sweeps that many keys and is Undecided at the cap unless one hits
    table, _ = giant_encodings(G31, G31.generator, H5)

    def sweep(x, cap):
        instance = _instance(G31, x)
        return _baby_sweep(G31, instance.P, instance.Q,
                           G31.sweep_keys(instance.Q), H5, table, 1, 3, 4,
                           cap)

    assert sweep(3, None) == sweep(3, 4) == NotInSubgroup(steps=4)
    assert sweep(3, 3) == Undecided(steps=3)
    assert sweep(3, 0) == Undecided(steps=0)
    assert sweep(4, None) == sweep(4, 2) == Found(x=Residue(4, 31), a=1,
                                                  b=1, steps=2)
    assert sweep(4, 1) == Undecided(steps=1)


def test_shared_giant_encodings():
    p = 211
    f = factor(p - 1)
    group = AdditiveOracleGroup(p)
    for d in (5, 30, 210):
        H = subgroup_generator(p, d, factored=f)
        kept = kept_giant(group, group.generator, H)
        assert kept_giant(group, group.generator, H) is kept
        table, cost = kept
        n = isqrt(d) + 1
        assert cost == n + 1
        zeta_n = pow(H.zeta.value, n, p)
        for a in range(n + 1):  # the oracle group encodes k*1 as k
            key = group.encode(group.element(pow(zeta_n, a, p)))
            hit = table[key]
            assert a in (hit if isinstance(hit, tuple) else (hit,))
        # a shared table is charged at its cost, so the shared solve reads
        # the fresh solve's verdict and steps, under any cap: below the
        # cost, at it, inside the baby sweep and at the theorem budget
        caps = (None, 0, cost - 1, cost, cost + 1, theorem_budget(d) - 1,
                theorem_budget(d))
        for x in range(1, p):
            instance = _instance(group, x)
            for cap in caps:
                plain = solve_in_subgroup(instance, H, step_cap=cap)
                shared = solve_in_subgroup(instance, H, step_cap=cap,
                                           shared_giant=kept)
                assert shared == plain, (d, x, cap)
                if cap is not None and cap <= cost:
                    assert shared == Undecided(steps=cap)


def test_a_second_generator_of_a_subgroup_gets_its_own_table():
    # zeta and zeta^2 generate the same order-71 subgroup, but their giant
    # tables differ, so each is kept under its own generator
    rec = dataclasses.replace(load_builtin("P-256"))  # a group of its own
    group = rec.oracle_group
    P = group.generator
    H = subgroup_generator(rec.p, 71, generator=rec.primitive_root)
    H2 = SubgroupSpec(d=71, zeta=Residue(pow(H.zeta.value, 2, rec.p), rec.p))
    kept, kept2 = kept_giant(group, P, H), kept_giant(group, P, H2)
    assert kept2 is not kept and kept2[0] != kept[0]
    member = _instance(group, pow(H2.zeta.value, 40, rec.p))
    found = solve_in_subgroup(member, H2, shared_giant=kept2)
    assert found == solve_in_subgroup(member, H2)
    assert isinstance(found, Found) and found.x.value == member.Q.data
    # the table of the other generator would have hidden the member
    assert isinstance(solve_in_subgroup(member, H2, shared_giant=kept),
                      NotInSubgroup)


def test_a_counting_layer_keeps_its_own_tables():
    inner = AdditiveOracleGroup(211)
    counter = CountingGroup(inner)
    H = subgroup_generator(211, 30)
    kept = kept_giant(inner, inner.generator, H)
    counted = kept_giant(counter, counter.generator, H)
    assert counted is not kept and counted == kept
    assert counter.scalar_muls == counted[1]   # built through the layer
    assert kept_giant(counter, counter.generator, H) is counted
    assert kept_giant(inner, inner.generator, H) is kept
    assert counter.scalar_muls == counted[1]   # and only once


def test_duplicate_giant_keys_keep_every_a():
    # zeta = -1 and n = 2, so zeta^n = 1 and all three giant keys are P
    H2 = SubgroupSpec(d=2, zeta=Residue(30, 31))
    table, _ = giant_encodings(G31, G31.generator, H2)
    assert list(table.values()) == [(0, 1, 2)]
    # b = 0 misses (Q = 30), b = 1 hits (zeta * Q = 1) and a = 0 verifies
    result = solve_in_subgroup(_instance(G31, 30), H2)
    assert result == Found(x=Residue(30, 31), a=0, b=1, steps=5)
    assert solve_in_subgroup(_instance(G31, 2), H2) == NotInSubgroup(
        steps=theorem_budget(2))


def test_trivial_subgroup():
    H1 = SubgroupSpec(d=1, zeta=Residue(1, 31))
    found = solve_in_subgroup(_instance(G31, 1), H1)
    assert isinstance(found, Found) and found.x == Residue(1, 31)
    out = solve_in_subgroup(_instance(G31, 2), H1)
    assert out == NotInSubgroup(steps=theorem_budget(1))


def test_verification_gate_rejects_bogus_collisions():
    # zeta = 25 has true order 3 mod 31; claiming d = 4 makes the first
    # collision recover zeta^3 = 1 instead of the real exponent.  The
    # re-verification multiply must reject it and let the sweep continue.
    H_lying = SubgroupSpec(d=4, zeta=Residue(25, 31))
    assert pow(25, 3, 31) == 1
    result = solve_in_subgroup(_instance(G31, 5), H_lying)
    assert result == Found(x=Residue(5, 31), a=1, b=1, steps=6)


def test_degenerate_key_raises():
    group = G31
    instance = DlpInstance(group=group, P=group.generator,
                           Q=group.identity)
    with pytest.raises(DegenerateKeyError):
        solve_in_subgroup(instance, H5)


def test_subgroup_modulus_mismatch():
    with pytest.raises(ValueError):
        solve_in_subgroup(_instance(AdditiveOracleGroup(37), 3), H5)


def test_instance_validation():
    with pytest.raises(ValueError):
        DlpInstance(group=G31, P=G31.identity, Q=G31.element(3))
    other = AdditiveOracleGroup(37)
    with pytest.raises(ValueError):
        DlpInstance(group=G31, P=G31.generator, Q=other.element(3))


def test_instance_p_is_read_from_its_group():
    for group in (G31, CountingGroup(G31), CurveGroup(desk_curve())):
        instance = DlpInstance(group=group, P=group.generator,
                               Q=group.scalar_mul(3, group.generator))
        assert instance.p == group.order
    assert [f.name for f in dataclasses.fields(DlpInstance)] == \
        ["group", "P", "Q"]
    with pytest.raises(TypeError):
        DlpInstance(group=G31, P=G31.generator, Q=G31.element(3), p=31)
