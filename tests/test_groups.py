"""Group backends: oracle, multiplicative, curve; encodings; curve files."""

import copy
import pickle
import random

import pytest

from subgroupdlp.catalog import load_builtin
from subgroupdlp.factoring import factor, find_primitive_root
from subgroupdlp.field import is_probable_prime
from subgroupdlp.groups import (COMB_TEETH, POWER_WINDOW,
                                AdditiveOracleGroup, CountingGroup,
                                CurveGroup, CurveParams, MultiplicativeGroup,
                                desk_curve, format_curve_params,
                                implicit_equal, load_curve_file,
                                parse_curve_params)


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


def keys_agree_with_scalar_mul(group, base, scalars):
    """sweep_keys(base)(k) against the encoded plain multiply, for each k."""
    keys = group.sweep_keys(base)
    for k in scalars:
        assert keys(k) == group.encode(group.scalar_mul(k, base)), k


def comb_agrees_with_plain_multiply(group, base, scalars):
    """The comb keys of `base` against the plain multiply; returns the
    comb table."""
    table, _ = group._comb_table(base.data)
    assert len(table) == 1 << COMB_TEETH
    keys_agree_with_scalar_mul(group, base, scalars)
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


def test_comb_matches_plain_multiply_on_p256():
    group = CurveGroup(P256)
    G = group.generator
    rng = random.Random(2560)
    base = group.scalar_mul(rng.getrandbits(256), G)
    for point in (G, base):
        comb_agrees_with_plain_multiply(
            group, point, [rng.getrandbits(256) for _ in range(20)]
            + [0, 1, group.order - 1, group.order])


def test_sweep_keys_of_the_identity_and_other_backends():
    group = CurveGroup(DESK)
    O = group.identity
    keys_agree_with_scalar_mul(group, O, range(-3, 10))
    assert group.sweep_keys(O)(7) == group.encode(O) == b"\x00"
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
    keys = counter.sweep_keys(group.generator)
    assert counter.scalar_muls == 0
    assert keys(5) == group.encode(group.scalar_mul(5, group.generator))
    assert counter.scalar_muls == 1


@pytest.mark.parametrize("group", [
    AdditiveOracleGroup(65537), MultiplicativeGroup(227, 4, 113),
    CurveGroup(DESK)], ids=lambda g: g.kind)
def test_keys_of_a_multiple_are_keys_of_the_point(group):
    # A campaign thread sweeps y*zeta^b through Q's keys in place of
    # zeta^b through the keys of y*Q; both must give the same bytes.
    p = group.order
    zeta = find_primitive_root(p, factor(p - 1)).value
    rng = random.Random(p)
    Q = group.scalar_mul(rng.randrange(2, p), group.generator)
    keys = group.sweep_keys(Q)
    for y in [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(5)]:
        keys_of_yQ = group.sweep_keys(group.scalar_mul(y, Q))
        for b in range(6):
            t = pow(zeta, b, p)
            assert keys(y * t % p) == keys_of_yQ(t), (y, b)


def power_table_agrees_with_pow(group, base, scalars):
    """The power-row keys of `base` against the built-in pow."""
    rows = -(-group.order.bit_length() // POWER_WINDOW)
    assert [len(row) for row in group._power_rows(base.data)] == \
        [1 << POWER_WINDOW] * rows
    keys = group.sweep_keys(base)
    for k in scalars:
        reference = group.element(pow(base.data, k % group.order,
                                      group.modulus))
        assert keys(k) == group.encode(reference) == \
            group.encode(group.scalar_mul(k, base)), k


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
    power_table_agrees_with_pow(
        group, base, [rng.randrange(-p, 2 * p) for _ in range(20)]
        + [0, 1, p - 1, p])


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
    # one encode, and building the key function costs neither
    counter = EncodeCountingGroup(group)
    keys = counter.sweep_keys(group.generator)
    assert (counter.scalar_muls, counter.encodes) == (0, 0)
    for k in range(1, 6):
        assert keys(k) == group.sweep_keys(group.generator)(k) == \
            group.encode(group.scalar_mul(k, group.generator))
        assert (counter.scalar_muls, counter.encodes) == (k, k)


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
    assert counter.sweep_keys(e)(9) == g.sweep_keys(e)(9) == \
        g.encode(g.scalar_mul(9, e))
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
