"""Group backends: oracle, multiplicative, curve; encodings; curve files."""

import copy
import itertools
import pickle
import random

import pytest

from subgroupdlp import groups
from subgroupdlp.bsgs import (DlpInstance, Found, NotInSubgroup,
                              solve_in_subgroup)
from subgroupdlp.catalog import load_builtin
from subgroupdlp.factoring import SubgroupSpec, factor, find_primitive_root
from subgroupdlp.field import Residue, is_probable_prime
from subgroupdlp.groups import (COMB_TEETH, ONE_SHOT_TEETH, POWER_WINDOW,
                                AdditiveOracleGroup, CountingGroup,
                                CurveGroup, CurveParams, CyclicGroup,
                                MultiplicativeGroup, desk_curve,
                                format_curve_params, implicit_equal,
                                load_curve_file, parse_curve_params)


def test_oracle_group_is_transparent():
    g = AdditiveOracleGroup(31)
    one = g.generator
    assert one.data == 1 and g.identity.data == 0
    assert g.scalar_mul(8, one).data == 8
    assert g.scalar_mul(35, one).data == 4          # k reduced mod p
    assert g.scalar_mul(-1, one).data == 30
    assert (g.element(7) + g.element(9)).data == 16
    assert (-g.element(7)).data == 24
    assert (g.element(7) + -g.element(9)).data == 29


def test_oracle_group_rejects_composite_order():
    with pytest.raises(ValueError):
        AdditiveOracleGroup(30)
    # element data is an int: True equals 1 but is no element
    g = AdditiveOracleGroup(31)
    with pytest.raises(ValueError):
        g.element(True)
    assert not g.contains(groups.GroupElement(g, True))


def test_group_structural_equality():
    assert AdditiveOracleGroup(31) == AdditiveOracleGroup(31)
    assert AdditiveOracleGroup(31) != AdditiveOracleGroup(37)
    # equal groups interoperate even across instances
    a = AdditiveOracleGroup(31).element(3)
    b = AdditiveOracleGroup(31).element(4)
    assert (a + b).data == 7


def test_mixed_group_arithmetic_raises():
    g31 = AdditiveOracleGroup(31)
    g37 = AdditiveOracleGroup(37)
    with pytest.raises(ValueError):
        g31.add(g31.element(3), g37.element(3))
    with pytest.raises(ValueError):
        g31.scalar_mul(2, g37.element(3))
    curve = CurveGroup(desk_curve())
    with pytest.raises(ValueError):
        curve.add(curve.generator, g31.element(3))


def test_multiplicative_group_wraps_exponentiation():
    # 227 is prime, 226 = 2 * 113
    g = MultiplicativeGroup(227, 147, 113)
    assert g.order == 113 and g.identity.data == 1
    x = g.generator
    assert pow(x.data, 113, 227) == 1 and x.data != 1
    assert g.add(x, x).data == x.data * x.data % 227
    assert g.scalar_mul(5, x).data == pow(x.data, 5, 227)
    assert g.scalar_mul(113, x) == g.identity
    assert (-x).data == pow(x.data, 225, 227)
    assert g.contains(x) and not g.contains(AdditiveOracleGroup(113).element(5))


def test_elements_of_an_equal_group_object_are_accepted():
    g, twin, other = (AdditiveOracleGroup(113), AdditiveOracleGroup(113),
                      AdditiveOracleGroup(109))
    x = twin.element(5)
    assert twin is not g and twin == g
    assert g.contains(x) and g.add(x, g.generator) == g.element(6)
    assert g.encode(x) == twin.encode(x)
    assert not g.contains(other.element(5))
    with pytest.raises(ValueError):
        g.add(other.element(5), g.generator)


def test_multiplicative_group_validation():
    with pytest.raises(ValueError):
        MultiplicativeGroup(227, 4, 109)       # 109 does not divide 226
    with pytest.raises(ValueError):
        MultiplicativeGroup(226, 3, 113)       # ambient modulus composite
    with pytest.raises(ValueError):
        MultiplicativeGroup(227, 1, 113)       # identity generates nothing
    g = MultiplicativeGroup(227, 147, 113)
    with pytest.raises(ValueError):
        g.element(True)                        # equals the identity's 1
    assert not g.contains(groups.GroupElement(g, True))


def test_membership_check_excludes_cosets():
    g = MultiplicativeGroup(227, 147, 113)
    inside = sum(1 for v in range(1, 227)
                 if g._contains_data(v))
    assert inside == 113  # exactly the order-113 subgroup of a 226-element unit group


DESK = desk_curve()


def test_desk_curve_is_a_valid_prime_order_curve():
    group = CurveGroup(DESK)
    assert DESK.cofactor == 1
    assert group.order == DESK.order
    assert group.scalar_mul(DESK.order, group.generator) == group.identity
    assert group.scalar_mul(DESK.order - 1, group.generator) == -group.generator
    # reference point count by brute Legendre sum: #E = order, so the
    # cofactor-1 membership check is sound
    q = DESK.q
    count = 1  # infinity
    for x in range(q):
        rhs = (x ** 3 + DESK.a * x + DESK.b) % q
        if rhs == 0:
            count += 1
        elif pow(rhs, (q - 1) // 2, q) == 1:
            count += 2
    assert count == DESK.order
    f = factor(DESK.order - 1)  # test-sized subgroups: 1998 = 2 * 3^3 * 37
    assert f.complete and f.factors == [(2, 1), (3, 3), (37, 1)]
    assert q % 4 == 3


def test_curve_group_law_samples():
    group = CurveGroup(DESK)
    G = group.generator
    rng = random.Random(7)
    pts = [group.scalar_mul(rng.randrange(1, group.order), G)
           for _ in range(40)]
    O = group.identity
    for i in range(len(pts) - 2):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + O == a
        assert a + (-a) == O


def test_curve_scalar_mul_matches_repeated_addition():
    group = CurveGroup(DESK)
    G = group.generator
    acc = group.identity
    for k in range(25):
        assert group.scalar_mul(k, G) == acc
        acc = acc + G
    # scalars act through their residue mod the group order
    assert group.scalar_mul(3, G) == group.scalar_mul(3 + group.order, G)
    assert group.scalar_mul(-2, G) == -group.scalar_mul(2, G)


def test_doubling_point_with_zero_y():
    # y = 0 points have order 2 and only exist off prime-order curves;
    # doubling such a point must hit the identity branch, not divide by 0.
    params = CurveParams(q=11, a=1, b=0, gx=0, gy=0, order=2, cofactor=6,
                         name="order-2")
    # order 2 is prime and 2*(0,0) = O on y^2 = x^3 + x over F_11
    group = CurveGroup(params)
    P = group.generator
    assert P + P == group.identity


# NIST P-256 (FIPS 186-4, D.1.2.3), as in bench/data/p256.curve.
P256 = CurveParams(
    q=int("11579208921035624876269744694940757353008614341529031419553363"
          "1308867097853951"),
    a=-3,
    b=int("41058363725152142129326129780047268409114441015993725554835256"
          "314039467401291"),
    gx=int("4843956129390645175905258525279791420276294952604174799584408"
           "0717082404635286"),
    gy=int("3613425095674979579858512791958788195661110667298501507187719"
           "8253568414405109"),
    order=int("1157920892103562487626974469494075735299969552241357603424"
              "22259061068512044369"),
    cofactor=1, name="P-256")


def reference_mul(group, k, P):
    """k*P by double-and-add over the affine group law `add` alone."""
    k %= group.order
    result = group.identity
    while k:
        if k & 1:
            result = group.add(result, P)
        P = group.add(P, P)
        k >>= 1
    return result


def test_scalar_mul_matches_affine_reference_on_desk_curve():
    group = CurveGroup(DESK)
    G = group.generator
    n = group.order
    for k in range(-n, 2 * n + 1):
        assert group.scalar_mul(k, G) == reference_mul(group, k, G), k
    # the unreduced multiply behind construction and cofactor membership;
    # k = n reaches a mixed addition R + E of a comb entry E with R = -E,
    # and k = 2129 one with R = E
    for k in range(3 * n + 1):
        assert group._mul(k, G.data) == reference_mul(group, k, G).data, k
    O = group.identity
    assert group.scalar_mul(0, G) == O
    assert group.scalar_mul(n, G) == O
    assert group.scalar_mul(5, O) == O


def test_scalar_mul_matches_affine_reference_on_p256():
    rec = load_builtin("P-256")
    assert (P256.order, P256.q) == (rec.p, rec.q)
    group = CurveGroup(P256)
    G = group.generator
    rng = random.Random(256)
    for _ in range(20):
        k = rng.getrandbits(256)
        assert group.scalar_mul(k, G) == reference_mul(group, k, G), k
    O = group.identity
    assert group.scalar_mul(0, G) == O
    assert group.scalar_mul(group.order, G) == O
    assert group.scalar_mul(rng.getrandbits(256), O) == O
    # -G is scalar_mul(-1, G) and order - 1 is its signed residue -1, so
    # check both against the affine negation too
    assert group.scalar_mul(group.order - 1, G) == -G
    assert (-G).data == (P256.gx, P256.q - P256.gy)
    assert (G + -G) == O


def key_of(group, point):
    """The key a backend's sweep gives a point: the curve's encoding, or
    the element's int on the oracle and multiplicative groups."""
    return group.encode(point) if group.kind == "curve" else point.data


def swept_keys(sweep, start, ratio, count):
    """Every key a sweep computes, collected by the probe `keys.append`,
    whose None is never a hit, so the sweep yields nothing."""
    keys = []
    assert list(sweep(start, ratio, count, keys.append)) == []
    return keys


def keys_agree_with_scalar_mul(group, base, scalars):
    """A one-key sweep of base from each k against the plain multiply."""
    sweep = group.sweep_keys(base)
    for k in scalars:
        assert swept_keys(sweep, k, 1, 1) == [key_of(group, group.scalar_mul(
            k, base))], k


def reference_keys(group, base, start, ratio, count):
    """The encodings of (start * ratio^i) * base for i < count, by
    `reference_mul`."""
    n = group.order
    return [group.encode(reference_mul(group, start * pow(ratio, i, n), base))
            for i in range(count)]


def comb_agrees_with_plain_multiply(group, base, scalars):
    """The comb keys of `base` against `reference_mul`, which, unlike
    scalar_mul, reads no comb; returns the comb table.

    A fresh sweep first runs several keys from start 1, whose first key is
    `base` itself and whose second builds the comb, then several from a
    random start, then one key from each k in `scalars`.
    """
    table, _ = group._comb_table(base.data, COMB_TEETH,
                                 group.order.bit_length())
    assert len(table) == 1 << COMB_TEETH
    sweep = group.sweep_keys(base)
    rng = random.Random(group.order)
    ratio, start = rng.randrange(1, group.order), rng.randrange(group.order)
    for start in (1, start):
        assert swept_keys(sweep, start, ratio, 6) == reference_keys(
            group, base, start, ratio, 6), start
    for k in scalars:
        assert swept_keys(sweep, k, 1, 1) == [group.encode(reference_mul(
            group, k, base))], k
    return table


def test_comb_matches_plain_multiply_on_desk_curve():
    group = CurveGroup(DESK)
    G = group.generator
    rng = random.Random(5)
    bases = [G, -G] + [group.scalar_mul(rng.randrange(2, group.order), G)
                       for _ in range(4)]
    for base in bases:
        comb_agrees_with_plain_multiply(
            group, base, range(-3, group.order + 3))


# Points of prime order 2..13 on curves over F_11: (a, b, x, y, order,
# cofactor).  The comb's table holds (sum of 2^(i*w) over the bits of j)
# times the base, so for orders this small its sums wrap: entries repeat
# and some are the identity, which reaches the doubling and identity
# branches of the table's additions.
SMALL_ORDER_POINTS = (
    (1, 0, 0, 0, 2, 6), (1, 0, 5, 3, 3, 4), (2, 5, 8, 4, 5, 2),
    (1, 1, 0, 1, 7, 2), (1, 5, 0, 4, 11, 1), (3, 2, 2, 4, 13, 1),
)


@pytest.mark.parametrize("a,b,x,y,order,cofactor", SMALL_ORDER_POINTS)
def test_comb_matches_plain_multiply_when_table_sums_collide(
        a, b, x, y, order, cofactor):
    params = CurveParams(q=11, a=a, b=b, gx=x, gy=y, order=order,
                         cofactor=cofactor, name="order-%d" % order)
    group = CurveGroup(params)
    table = comb_agrees_with_plain_multiply(
        group, group.generator, range(-2 * order, 3 * order))
    entries = table[1:]
    assert None in entries or len(set(entries)) < len(entries)


def small_order_group(a, b, x, y, order, cofactor):
    return CurveGroup(CurveParams(q=11, a=a, b=b, gx=x, gy=y, order=order,
                                  cofactor=cofactor,
                                  name="order-%d" % order))


@pytest.mark.parametrize("curve", [None] + list(SMALL_ORDER_POINTS))
def test_window_multiply_matches_affine_reference_unreduced(curve):
    # unreduced and negative k; on these orders some comb entries are O or
    # repeat, so columns add nothing or meet the accumulator
    group = CurveGroup(DESK) if curve is None else small_order_group(*curve)
    G = group.generator
    n = group.order
    for k in range(-2 * n, 3 * n):
        assert group._mul(k, G.data) == reference_mul(group, k, G).data, k


def test_window_multiply_matches_affine_reference_on_p256():
    group = CurveGroup(P256)
    G = group.generator
    n = group.order
    rng = random.Random(4096)
    for k in [0, 1, 2, 15, 16, 17, n - 1, n, n + 1] + [
            rng.getrandbits(256) for _ in range(20)]:
        assert group._mul(k, G.data) == reference_mul(group, k, G).data, k


def test_p256_inversions_per_comb_build_sweep_key_and_multiply(monkeypatch):
    group = CurveGroup(P256)
    G = group.generator
    inversions = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inversions.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(groups, "pow", counting_pow, raising=False)
    sweep = group.sweep_keys(G)  # the comb waits for a key that reads it
    assert len(inversions) == 0
    start = random.Random(7).getrandbits(256)
    # the first key with k != 1 builds the comb (teeth, then entries) and
    # reads it at one inversion of its own
    assert len(swept_keys(sweep, start, 3, 1)) == 1
    assert len(inversions) == 2 + 1
    keys = swept_keys(sweep, start * 3, 3, 9)
    assert len(keys) == 9 and len(inversions) == 2 + 10
    # a one-shot comb of its own: teeth, entries, then the result
    group.scalar_mul(group.order - 2, G)
    assert len(inversions) == 2 + 10 + 3


@pytest.mark.parametrize("curve", ["desk", "mid", "P-256"])
def test_each_curve_multiply_builds_one_comb_sized_to_its_key(
        curve, mid_curve_params, comb_builds):
    group = CurveGroup({"desk": DESK, "mid": mid_curve_params,
                        "P-256": P256}[curve])
    G, n = group.generator, group.order
    builds = comb_builds
    for k in (1, -1, n - 1, n + 1):  # the signed residue is +-1: +-P itself
        builds.clear()
        assert group.scalar_mul(k, G) == reference_mul(group, k, G), k
        assert builds == [], k
    for k in (2, -2, n - 2, n + 2):  # two teeth of one column each
        builds.clear()
        assert group.scalar_mul(k, G) == reference_mul(group, k, G), k
        assert builds == [(2, 2)], k
    residue = 12345 % n - n if 2 * (12345 % n) > n else 12345 % n
    builds.clear()
    group.scalar_mul(12345, G)
    assert builds == [(ONE_SHOT_TEETH, abs(residue).bit_length())]
    builds.clear()
    assert group.scalar_mul(0, G) == group.scalar_mul(n, G) == group.identity
    assert builds == []
    assert group._mul(1, G.data) == G.data
    assert group._mul(-1, G.data) == (G.data[0], -G.data[1] % group.q)
    assert builds == []
    assert group._mul(n, G.data) is None
    assert builds == [(ONE_SHOT_TEETH, n.bit_length())]
    builds.clear()
    sweep = group.sweep_keys(G)
    assert builds == []
    swept_keys(sweep, 1, 2, 2)  # G's own key, then 2G's from the comb
    assert builds == [(COMB_TEETH, n.bit_length())]


@pytest.mark.parametrize("curve", ["desk", "mid", "P-256"])
def test_a_sweep_builds_its_comb_at_its_first_key_other_than_the_point(
        curve, mid_curve_params, comb_builds):
    group = CurveGroup({"desk": DESK, "mid": mid_curve_params,
                        "P-256": P256}[curve])
    n, G = group.order, group.generator
    rng = random.Random(n)
    base = group.scalar_mul(rng.randrange(2, n), G)
    start, ratio = rng.randrange(2, n), rng.randrange(2, n)
    from_one = reference_keys(group, base, 1, ratio, 4)
    from_start = reference_keys(group, base, start, ratio, 4)
    comb_builds.clear()
    sweep = group.sweep_keys(base)
    assert comb_builds == []
    # a sweep from start 1 that stops after its first key reads `base` alone
    assert swept_keys(sweep, 1, ratio, 1) == from_one[:1]
    hits = sweep(1, ratio, 4, {from_one[0]: "base", from_one[1]: "next"}.get)
    assert next(hits) == (0, "base")
    assert comb_builds == []
    # run on, it builds the comb at its second key, once
    assert next(hits) == (1, "next")
    assert comb_builds == [(COMB_TEETH, n.bit_length())]
    assert list(hits) == []
    # later calls, from 1 or from another start, read the same comb
    assert swept_keys(sweep, 1, ratio, 4) == from_one
    assert swept_keys(sweep, start, ratio, 4) == from_start
    assert comb_builds == [(COMB_TEETH, n.bit_length())]
    # another sweep_keys call prepares its own comb, again only when read
    other = group.sweep_keys(base)
    assert swept_keys(other, 1, ratio, 1) == from_one[:1]
    assert comb_builds == [(COMB_TEETH, n.bit_length())]
    assert swept_keys(other, start, ratio, 4) == from_start
    assert comb_builds == [(COMB_TEETH, n.bit_length())] * 2


def test_comb_matches_plain_multiply_on_p256():
    group = CurveGroup(P256)
    G = group.generator
    rng = random.Random(2560)
    base = group.scalar_mul(rng.getrandbits(256), G)
    for point in (G, base):
        comb_agrees_with_plain_multiply(
            group, point, [rng.getrandbits(256) for _ in range(20)]
            + [0, 1, group.order - 1, group.order])


def test_comb_matches_plain_multiply_on_a_28_bit_curve(mid_curve_params):
    group = CurveGroup(mid_curve_params)
    n = group.order
    rng = random.Random(28)
    base = group.scalar_mul(rng.randrange(2, n), group.generator)
    for point in (group.generator, base):
        table, w = group._comb_table(point.data, COMB_TEETH, n.bit_length())
        assert w == 5  # 28 bits in 6 teeth: each tooth spans 5 columns
        for k in [rng.randrange(n) for _ in range(40)] + [0, 1, n - 1]:
            assert group._comb_mul(k, table, w) == group._mul(k, point.data)


def test_sweep_keys_of_the_identity_and_other_backends():
    group = CurveGroup(DESK)
    O = group.identity
    keys_agree_with_scalar_mul(group, O, range(-3, 10))
    assert swept_keys(group.sweep_keys(O), 7, 3, 4) == [b"\x00"] * 4
    oracle = AdditiveOracleGroup(31)
    for base in (oracle.generator, oracle.element(17), oracle.identity):
        keys_agree_with_scalar_mul(oracle, base, range(-3, oracle.order + 3))
    e = MultiplicativeGroup(23, 2, 11).generator
    keys_agree_with_scalar_mul(e.group, e, range(-3, 14))
    for foreign in (AdditiveOracleGroup(31).generator, e):
        with pytest.raises(ValueError):
            group.sweep_keys(foreign)
    with pytest.raises(ValueError):
        oracle.sweep_keys(AdditiveOracleGroup(37).generator)
    counter = CountingGroup(group)
    sweep = counter.sweep_keys(group.generator)
    assert counter.scalar_muls == 0
    assert swept_keys(sweep, 5, 1, 1) == [group.encode(group.scalar_mul(
        5, group.generator))]
    assert counter.scalar_muls == 1


SWEPT = {
    "oracle": lambda: AdditiveOracleGroup(211),
    "multiplicative": lambda: MultiplicativeGroup(227, 4, 113),
    "curve": lambda: CurveGroup(DESK),
}


@pytest.mark.parametrize("counted", [False, True], ids=["plain", "counted"])
@pytest.mark.parametrize("backend", sorted(SWEPT))
def test_sweep_keys_are_equal_exactly_when_points_are(backend, counted):
    inner = SWEPT[backend]()
    group = CountingGroup(inner) if counted else inner
    p = group.order
    zeta = find_primitive_root(p, factor(p - 1)).value
    rng = random.Random(p)
    G = group.generator
    for base in (G, group.scalar_mul(rng.randrange(2, p), G), group.identity):
        sweep = group.sweep_keys(base)
        # a primitive ratio runs through every unit and wraps round, -1
        # repeats two points, and 0 sends every point after the first to O
        for start, ratio, count in ((1, zeta, p + 3), (5, p - 1, 6),
                                    (rng.randrange(1, p), 0, 3)):
            points = [group.scalar_mul(start * pow(ratio, i, p), base)
                      for i in range(count)]
            keys = swept_keys(sweep, start, ratio, count)
            assert len(set(keys)) == len(set(points)) == \
                len(set(zip(keys, points)))
            # the counting layer runs the generic loop, encode(scalar_mul)
            assert keys == [inner.encode(P) if counted else key_of(inner, P)
                            for P in points]
        assert swept_keys(sweep, 3, zeta, 0) == []
    with pytest.raises(ValueError):
        group.sweep_keys(AdditiveOracleGroup(101).generator)


@pytest.mark.parametrize("counted", [False, True], ids=["plain", "counted"])
@pytest.mark.parametrize("backend", sorted(SWEPT))
def test_a_sweep_yields_each_hit_of_its_probe_in_order(backend, counted):
    group = CountingGroup(SWEPT[backend]()) if counted else SWEPT[backend]()
    p = group.order
    zeta = find_primitive_root(p, factor(p - 1)).value
    rng = random.Random(p)
    sweep = group.sweep_keys(group.scalar_mul(rng.randrange(2, p),
                                              group.generator))
    keys = swept_keys(sweep, 3, zeta, 40)
    assert len(set(keys)) == 40
    # every third key is marked, some with falsy hits; None is no hit
    marks = {key: [0, "", None, 7, (0, 1), False][j % 6]
             for j, key in enumerate(keys[::3])}
    read = []

    def probe(key):
        read.append(key)
        return marks.get(key)

    hits = list(sweep(3, zeta, 40, probe))
    assert hits == [(i, marks[key]) for i, key in enumerate(keys)
                    if marks.get(key) is not None]
    assert [hit for _, hit in hits[:2]] == [0, ""]
    assert read == keys
    # a sweep computes (and a counting layer charges) no key past a hit
    # until it is resumed
    read.clear()
    before = group.scalar_muls if counted else 0
    for i, _ in sweep(3, zeta, 40, probe):
        assert len(read) == i + 1
        if counted:
            assert group.scalar_muls - before == i + 1
    assert len(read) == 40


@pytest.mark.parametrize("group", [
    AdditiveOracleGroup(65537), MultiplicativeGroup(227, 4, 113),
    CurveGroup(DESK)], ids=lambda g: g.kind)
def test_keys_of_a_multiple_are_keys_of_the_point(group):
    # A campaign thread sweeps y*zeta^b through Q's sweep in place of
    # zeta^b through the sweep of y*Q; both must give the same keys.
    p = group.order
    zeta = find_primitive_root(p, factor(p - 1)).value
    rng = random.Random(p)
    Q = group.scalar_mul(rng.randrange(2, p), group.generator)
    sweep = group.sweep_keys(Q)
    for y in [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(5)]:
        sweep_of_yQ = group.sweep_keys(group.scalar_mul(y, Q))
        assert swept_keys(sweep, y, zeta, 6) == \
            swept_keys(sweep_of_yQ, 1, zeta, 6), y


def power_table_agrees_with_pow(group, base, scalars):
    """The power-row keys of `base` against the built-in pow."""
    rows = -(-group.order.bit_length() // POWER_WINDOW)
    assert [len(row) for row in group._power_rows(base.data)] == \
        [1 << POWER_WINDOW] * rows
    sweep = group.sweep_keys(base)
    for k in scalars:
        reference = group.element(pow(base.data, k % group.order,
                                      group.modulus))
        assert swept_keys(sweep, k, 1, 1) == [reference.data] == \
            [group.scalar_mul(k, base).data], k


@pytest.mark.parametrize("group", [
    MultiplicativeGroup(227, 147, 113),
    MultiplicativeGroup(23, 2, 11),
    MultiplicativeGroup(7, 6, 2),   # order 2: one row, no multiplies
    MultiplicativeGroup(7, 2, 3),   # order 3
], ids=lambda g: "r%d-p%d" % (g.modulus, g.order))
def test_power_table_matches_pow_for_every_scalar(group):
    G = group.generator
    for base in (G, -G, group.scalar_mul(group.order // 2 + 1, G),
                 group.identity):
        power_table_agrees_with_pow(group, base, range(-3, group.order + 3))


def test_power_table_matches_pow_on_a_128_bit_modulus():
    # shaped like the campaign benchmark's group: a 24-bit p and a
    # ~128-bit prime r = 2cp + 1
    rng = random.Random(128)
    p = 39 * (1 << 18) + 1
    r = 4
    while not is_probable_prime(r):
        r = 2 * p * rng.randrange(1 << 103, 1 << 104) + 1
    group = MultiplicativeGroup(r, pow(2, (r - 1) // p, r), p)
    assert r.bit_length() in (128, 129) and p.bit_length() == 24
    base = group.scalar_mul(rng.randrange(2, p), group.generator)
    # three rows of 256: two multiplies per key
    assert len(group._power_rows(base.data)) == 3
    power_table_agrees_with_pow(
        group, base, [rng.randrange(-p, 2 * p) for _ in range(20)]
        + [0, 1, p - 1, p])


def schnorr_group(p):
    """The order-p subgroup of (Z/rZ)* for the least prime r = 2cp + 1."""
    r = next(r for r in itertools.count(2 * p + 1, 2 * p)
             if is_probable_prime(r))
    g = next(g for g in range(2, r) if pow(g, (r - 1) // p, r) != 1)
    return MultiplicativeGroup(r, pow(g, (r - 1) // p, r), p)


# orders whose bit length sits on and just past a row boundary
@pytest.mark.parametrize("p, rows", [(251, 1), (257, 2), (65521, 2),
                                     (65537, 3)])
def test_power_rows_on_and_past_a_row_boundary(p, rows):
    group = schnorr_group(p)
    G = group.generator
    base = group.scalar_mul(p // 3, G)
    assert len(group._power_rows(base.data)) == rows
    if p < 1 << 9:
        scalars = range(-3, p + 3)
    else:
        rng = random.Random(p)
        scalars = ([0, 1, 255, 256, 65535, 65536, p - 1]
                   + [rng.randrange(p) for _ in range(200)])
    for point in (G, base):
        power_table_agrees_with_pow(group, point, scalars)
    # a run of keys steps the scalar by the ratio, through every row
    sweep = group.sweep_keys(base)
    assert swept_keys(sweep, p - 2, 3, 40) == [
        pow(base.data, (p - 2) * pow(3, i, p) % p, group.modulus)
        for i in range(40)]


class Multiplicand(int):
    """A row entry that records the widest product it is multiplied into."""

    widest = 0

    def __mul__(self, other):
        Multiplicand.widest = max(Multiplicand.widest, other.bit_length())
        return int(self) * int(other)

    __rmul__ = __mul__


class WidthRecordingRows(MultiplicativeGroup):
    def _power_rows(self, base):
        return [[Multiplicand(v) for v in row]
                for row in super()._power_rows(base)]


# A key's product is reduced once it holds 8 row entries: 8 rows make one
# run, 9 a run of 8 and one of 1, 16 a run of 8 and one of 8, 17 three
@pytest.mark.parametrize("bits, rows", [(64, 8), (72, 9), (128, 16),
                                        (136, 17)])
def test_power_rows_of_large_orders_reduce_between_runs(bits, rows):
    p = next(p for p in range((1 << bits) - 1, 1, -2) if is_probable_prime(p))
    plain = schnorr_group(p)
    group = WidthRecordingRows(plain.modulus, plain.generator.data, p)
    rng = random.Random(bits)
    Multiplicand.widest = 0
    base = group.scalar_mul(rng.randrange(2, p), group.generator)
    assert len(group._power_rows(base.data)) == rows
    power_table_agrees_with_pow(
        group, base, [0, 1, p - 1, p, (1 << bits - 8) - 1]
        + [rng.randrange(p) for _ in range(10)])
    ratio = rng.randrange(2, p)
    assert swept_keys(group.sweep_keys(base), 5, ratio, 12) == [
        pow(base.data, 5 * pow(ratio, i, p) % p, group.modulus)
        for i in range(12)]
    # no product grows past 8 factors below r before it is reduced
    assert 0 < Multiplicand.widest <= 8 * group.modulus.bit_length()


class EncodeCountingGroup(CountingGroup):
    """A counting layer that also counts encodes, as a tracing layer does."""

    encodes = 0

    def encode(self, e):
        self.encodes += 1
        return super().encode(e)


def test_power_table_rejects_foreign_elements_and_is_not_counted():
    group = MultiplicativeGroup(23, 2, 11)
    for foreign in (AdditiveOracleGroup(11).generator,
                    MultiplicativeGroup(7, 2, 3).generator):
        with pytest.raises(ValueError):
            group.sweep_keys(foreign)
    # through the counting layer each key is one counted scalar_mul and
    # one encode, made as the key is read, and preparing the sweep costs
    # neither
    G = group.generator
    counter = EncodeCountingGroup(group)
    sweep = counter.sweep_keys(G)
    assert (counter.scalar_muls, counter.encodes) == (0, 0)
    scalars = [pow(2, i, 11) for i in range(5)]
    assert swept_keys(group.sweep_keys(G), 1, 2, 5) == \
        [group.scalar_mul(k, G).data for k in scalars]
    read = []  # each key with the counts as the probe reads it

    def probe(key):
        read.append((key, counter.scalar_muls, counter.encodes))

    assert list(sweep(1, 2, 5, probe)) == []
    assert read == [(group.encode(group.scalar_mul(k, G)), i, i)
                    for i, k in enumerate(scalars, 1)]


def test_cofactor_membership_is_the_prime_order_subgroup():
    # y^2 = x^3 + x over F_11 has 12 points; with order 2 and cofactor 6
    # the subgroup is {O, (0, 0)}, and every other point must be refused
    params = CurveParams(q=11, a=1, b=0, gx=0, gy=0, order=2, cofactor=6,
                         name="order-2")
    group = CurveGroup(params)
    points = [(x, y) for x in range(11) for y in range(11)
              if group._on_curve((x, y))]
    assert len(points) == 11
    members = [pt for pt in points if group._contains_data(pt)]
    assert members == [(0, 0)]
    with pytest.raises(ValueError):
        group.element(points[-1])


def test_encodings_injective_and_identity_distinguished():
    group = CurveGroup(DESK)
    rng = random.Random(11)
    pts = {group.scalar_mul(rng.randrange(group.order), group.generator)
           for _ in range(200)}
    blobs = {group.encode(p) for p in pts}
    assert len(blobs) == len(pts)
    assert group.encode(group.identity) == b"\x00"
    oracle = AdditiveOracleGroup(65537)
    assert len(oracle.encode(oracle.element(1))) == len(
        oracle.encode(oracle.element(65536)))


def test_curve_group_validation_errors():
    with pytest.raises(ValueError):  # singular: 4a^3 + 27b^2 = 0
        CurveGroup(CurveParams(q=11, a=0, b=0, gx=0, gy=0, order=11))
    with pytest.raises(ValueError):  # base point off curve
        CurveGroup(CurveParams(q=DESK.q, a=DESK.a, b=DESK.b, gx=DESK.gx,
                               gy=(DESK.gy + 1) % DESK.q, order=DESK.order))
    with pytest.raises(ValueError):  # wrong order
        CurveGroup(CurveParams(q=DESK.q, a=DESK.a, b=DESK.b, gx=DESK.gx,
                               gy=DESK.gy, order=65537))
    with pytest.raises(ValueError):  # composite order
        CurveGroup(CurveParams(q=DESK.q, a=DESK.a, b=DESK.b, gx=DESK.gx,
                               gy=DESK.gy, order=DESK.order * 2))
    # y^2 = x^3 + x over F_11 has 12 points, so a point of order 3 has
    # cofactor 4; cofactor 1 claims 3 points, which Hasse's bound
    # (|12 - #E| <= 2 sqrt(11)) rules out, and would admit (0, 0), of order 2
    with pytest.raises(ValueError, match="Hasse"):
        CurveGroup(CurveParams(q=11, a=1, b=0, gx=5, gy=3, order=3,
                               cofactor=1))
    group = CurveGroup(CurveParams(q=11, a=1, b=0, gx=5, gy=3, order=3,
                                   cofactor=4))
    with pytest.raises(ValueError):
        group.element((0, 0))
    # coordinates are ints: float or bool copies of G's are no point
    desk = CurveGroup(DESK)
    assert DESK.gx == 1
    for data in ((float(DESK.gx), float(DESK.gy)), (DESK.gx, float(DESK.gy)),
                 (True, DESK.gy)):
        with pytest.raises(ValueError):
            desk.element(data)
        assert not desk.contains(groups.GroupElement(desk, data))


def test_implicit_equality_iff_congruent():
    rng = random.Random(13)
    for group in (AdditiveOracleGroup(10007), CurveGroup(DESK)):
        p = group.order
        for _ in range(150):
            a = rng.randrange(-3 * p, 3 * p)
            b = rng.randrange(-3 * p, 3 * p)
            assert implicit_equal(a, b, group) == (a % p == b % p)
        a = rng.randrange(p)
        assert implicit_equal(a, a + p, group)
        assert implicit_equal(a, a - p, group)


def test_curve_file_round_trip():
    text = format_curve_params(DESK)
    back = parse_curve_params(text)
    assert back == DESK
    assert format_curve_params(back) == text


def test_curve_file_parsing_flexibility(tmp_path):
    text = """
    # demo curve
    name = tiny
    q = 0x7     # hex works
    a = 3
    b = 4
    gx = 1
    gy = 1
    order = 11
    """
    params = parse_curve_params(text)
    assert params.q == 7 and params.cofactor == 1 and params.name == "tiny"
    path = tmp_path / "curve.txt"
    path.write_text(format_curve_params(DESK))
    assert load_curve_file(str(path)) == DESK


def test_curve_file_missing_field():
    with pytest.raises(ValueError):
        parse_curve_params("q = 7\na = 1\nb = 2\n")
    with pytest.raises(ValueError):
        parse_curve_params("nonsense line without equals")
    # a misspelt key is not dropped, a repeated one does not overwrite
    text = format_curve_params(DESK)
    with pytest.raises(ValueError, match="'cofactr'"):
        parse_curve_params(text.replace("cofactor", "cofactr"))
    with pytest.raises(ValueError, match="'q'"):
        parse_curve_params("q = 7\n" + text)


def test_counting_group_counts():
    counter = CountingGroup(AdditiveOracleGroup(31))
    e = counter.element(5)
    counter.scalar_mul(3, e)
    counter.scalar_mul(4, e)
    counter.add(e, e)
    assert counter.scalar_muls == 2 and counter.adds == 1
    counter.reset()
    assert counter.scalar_muls == 0 and counter.adds == 0
    assert counter.order == 31
    assert counter == AdditiveOracleGroup(31)


BACKENDS = {
    "oracle": lambda: AdditiveOracleGroup(113),
    "multiplicative": lambda: MultiplicativeGroup(227, 147, 113),
    "curve": lambda: CurveGroup(DESK),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_counting_layer_passes_the_protocol_through(backend):
    g = BACKENDS[backend]()
    counter = CountingGroup(g)
    e = g.scalar_mul(5, g.generator)
    for name in ("order", "kind", "identity", "generator"):
        assert getattr(counter, name) == getattr(g, name)
    assert counter.element(e.data) == g.element(e.data)
    assert counter.contains(e) and not counter.contains(
        AdditiveOracleGroup(109).generator)
    assert counter.negate(e) == g.negate(e)
    assert counter.encode(e) == g.encode(e)
    assert counter == g and hash(counter) == hash(g)
    assert (counter.scalar_muls, counter.adds) == (0, 0)  # none of the above
    assert counter.scalar_mul(7, e) == g.scalar_mul(7, e)
    assert counter.add(e, e) == g.add(e, e)
    assert (counter.scalar_muls, counter.adds) == (1, 1)
    for clone in (copy.copy(counter), pickle.loads(pickle.dumps(counter))):
        assert (clone.scalar_muls, clone.adds) == (1, 1)
        assert clone == g and clone.order == g.order
        assert clone.scalar_mul(2, e) == g.scalar_mul(2, e)
        assert clone.scalar_muls == 2
    assert counter.scalar_muls == 1
    assert swept_keys(counter.sweep_keys(e), 9, 1, 1) == \
        [g.encode(g.scalar_mul(9, e))]
    assert (counter.scalar_muls, counter.adds) == (2, 1)


def test_group_layer_is_written_once():
    own = {name for name, value in vars(CountingGroup).items()
           if callable(value)}
    assert own == {"__init__", "__getattr__", "add", "scalar_mul", "encode",
                   "sweep_keys", "reset", "__eq__", "__hash__", "__repr__"}
    for cls in (AdditiveOracleGroup, MultiplicativeGroup):
        assert "_encode" not in vars(cls)
    with pytest.raises(AttributeError):
        CountingGroup(AdditiveOracleGroup(31)).no_such_attribute
    backends = [value for value in vars(groups).values()
                if isinstance(value, type) and issubclass(value, CyclicGroup)
                and value is not CyclicGroup]
    assert set(backends) == {AdditiveOracleGroup, MultiplicativeGroup,
                             CurveGroup}
    assert _restated_operations(backends + [EvenResidues]) == []


# What CyclicGroup writes once for every backend, on top of raw hooks.
GROUP_OPERATIONS = {"scalar_mul", "sweep_keys", "add", "encode", "negate",
                    "_check", "_wrap"}


def _restated_operations(classes):
    """'Class.name' for each of GROUP_OPERATIONS that a class defines."""
    return sorted("%s.%s" % (cls.__name__, name) for cls in classes
                  for name in GROUP_OPERATIONS & set(vars(cls)))


def test_the_operation_scan_sees_a_backend_restating_scalar_mul():
    class Restating(EvenResidues):
        def scalar_mul(self, k, e):
            return super().scalar_mul(k, e)

    assert _restated_operations([EvenResidues, Restating]) == [
        "Restating.scalar_mul"]


class EvenResidues(CyclicGroup):
    """The order-p subgroup 2Z/2pZ of Z/2pZ, written only against the
    protocol CyclicGroup documents: its raw hooks and its data attributes."""

    kind = "even"
    _identity, _gen, _width = 0, 2, 1  # one byte encodes 2p for p < 128

    def _key(self):
        return (self.order,)

    def _add(self, a, b):
        return (a + b) % (2 * self.order)

    def _mul(self, k, data):
        return k * data % (2 * self.order)

    def _contains_data(self, data):
        return (isinstance(data, int) and 0 <= data < 2 * self.order
                and data % 2 == 0)


def test_a_backend_needs_only_the_documented_protocol():
    group = EvenResidues(31)
    G, O = group.generator, group.identity
    assert (G.data, O.data) == (2, 0) and O.is_identity()
    assert not G.is_identity() and (G + -G).is_identity()
    assert group.element(16) + G == group.scalar_mul(9, G)
    assert -G == group.scalar_mul(30, G) == group.element(60)
    # the default sweep keys each multiple by _mul and _encode
    assert swept_keys(group.sweep_keys(G), 5, 3, 4) == [
        group.encode(group.scalar_mul(5 * 3 ** i, G)) for i in range(4)]
    assert swept_keys(group.sweep_keys(O), 5, 3, 2) == [b"\x00"] * 2
    H5 = SubgroupSpec(d=5, zeta=Residue(2, 31))  # <2> = {1,2,4,8,16}
    assert solve_in_subgroup(DlpInstance.from_secret(group, 8), H5) == \
        Found(x=Residue(8, 31), a=1, b=0, steps=5)
    assert solve_in_subgroup(DlpInstance.from_secret(group, 3), H5) == \
        NotInSubgroup(steps=8)


def test_mul_sees_the_signed_residue_of_k():
    seen = []

    class Recording(EvenResidues):
        def _mul(self, k, data):
            seen.append(k)
            return super()._mul(k, data)

    group = Recording(31)
    G = group.generator
    for k in (0, 1, 15, 16, 30, 31, 32, 47, -1, -15, -16, 31 * 10 ** 9 + 16):
        assert group.scalar_mul(k, G) == group.element(2 * k % 62), k
    assert seen == [0, 1, 15, -15, -1, 0, 1, -15, -1, -15, 15, -15]
    seen.clear()
    assert (-G).data == 60 and seen == [-1]
    # a sweep hands _mul its reduced multiplier
    assert swept_keys(group.sweep_keys(G), 30, 2, 2) == [b"\x3c", b"\x3a"]
    assert seen == [-1, 30, 29]
