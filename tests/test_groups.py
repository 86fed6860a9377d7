"""Group backends: oracle, multiplicative, curve; encodings; curve files."""

import random

import pytest

from subgroupdlp.catalog import load_builtin
from subgroupdlp.groups import (AdditiveOracleGroup, CountingGroup,
                                CurveGroup, CurveParams, MultiplicativeGroup,
                                desk_curve, find_small_curve,
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
    assert (g.element(7) - g.element(9)).data == 29


def test_oracle_group_rejects_composite_order():
    with pytest.raises(ValueError):
        AdditiveOracleGroup(30)


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
    g = MultiplicativeGroup.subgroup_of_units(227, 113)
    assert g.order == 113 and g.identity.data == 1
    x = g.generator
    assert pow(x.data, 113, 227) == 1 and x.data != 1
    assert g.add(x, x).data == x.data * x.data % 227
    assert g.scalar_mul(5, x).data == pow(x.data, 5, 227)
    assert g.scalar_mul(113, x) == g.identity
    assert (-x).data == pow(x.data, 225, 227)
    assert g.contains(x) and not g.contains(AdditiveOracleGroup(113).element(5))


def test_multiplicative_group_validation():
    with pytest.raises(ValueError):
        MultiplicativeGroup(227, 4, 109)       # 109 does not divide 226
    with pytest.raises(ValueError):
        MultiplicativeGroup(226, 3, 113)       # ambient modulus composite
    with pytest.raises(ValueError):
        MultiplicativeGroup(227, 1, 113)       # identity generates nothing


def test_membership_check_excludes_cosets():
    g = MultiplicativeGroup.subgroup_of_units(227, 113)
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
    # k = n and k = n+2 reach the mixed additions R + P with R = -P and R = P
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
    assert group.scalar_mul(group.order - 1, G) == -G


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
    for p in pts:
        assert group.decode(group.encode(p)) == p
    oracle = AdditiveOracleGroup(65537)
    assert oracle.decode(oracle.encode(oracle.element(123))).data == 123
    assert len(oracle.encode(oracle.element(1))) == len(
        oracle.encode(oracle.element(65536)))


def test_decode_rejects_non_members():
    group = CurveGroup(DESK)
    width = (DESK.q - 1).bit_length() + 7 >> 3
    junk = b"\x04" + (1).to_bytes(width, "big") + (2).to_bytes(width, "big")
    if not group._on_curve((1, 2)):
        with pytest.raises(ValueError):
            group.decode(junk)
    with pytest.raises(ValueError):
        group.decode(b"\x05" + junk[1:])


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


def test_find_small_curve_properties():
    rng = random.Random(2024)
    params = find_small_curve(500, 3000, rng, smooth_bound=64)
    group = CurveGroup(params)
    assert 500 <= params.q <= 3000
    assert group.scalar_mul(params.order, group.generator) == group.identity
    n = params.order - 1
    for f in range(2, 65):
        while n % f == 0:
            n //= f
    assert n == 1  # order-1 is 64-smooth as requested


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
