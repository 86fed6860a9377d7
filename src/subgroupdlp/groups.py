"""Prime-order cyclic groups written additively.

Three interchangeable backends share one element/group protocol:

* AdditiveOracleGroup -- Z/pZ itself, where k*P is literally k*P mod p.
  The discrete log is transparent, which makes it the test oracle: any
  solver result can be checked by inspection.
* MultiplicativeGroup -- the order-p subgroup of (Z/rZ)* for a prime r
  with p | r-1, written additively ("add" is modular multiplication).
* CurveGroup -- short-Weierstrass points over F_q, stored in affine
  coordinates (the identity is the point at infinity) and multiplied in
  Jacobian coordinates.

A group's `order` is always a verified (probable) prime p, so scalars live
in the field Z/pZ and k*P depends only on k mod p.  Encodings are injective
bytes with a distinguished identity encoding, giving hashable dictionary
keys for collision search.
"""

import random
from dataclasses import dataclass

from .field import is_probable_prime, parse_int

__all__ = [
    "GroupElement", "CyclicGroup", "AdditiveOracleGroup",
    "MultiplicativeGroup", "CurveGroup", "CurveParams", "CountingGroup",
    "implicit_equal", "parse_curve_params", "format_curve_params",
    "load_curve_file", "find_small_curve", "desk_curve",
]


class GroupElement:
    """An element of a CyclicGroup; all arithmetic delegates to the group."""

    __slots__ = ("group", "data")

    def __init__(self, group, data):
        self.group = group
        self.data = data

    def __add__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group.add(self, other)

    def __neg__(self):
        return self.group.negate(self)

    def __sub__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group.add(self, self.group.negate(other))

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return self.group.scalar_mul(k, self)

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and self.data == other.data

    def __hash__(self):
        return hash((self.group, self.data))

    def encode(self):
        return self.group.encode(self)

    def is_identity(self):
        return self.data == self.group._identity_data()

    def __repr__(self):
        return "<%s %r>" % (self.group.kind, self.data)


class CyclicGroup:
    """Base class: a cyclic group of verified prime order p.

    Subclasses implement scalar_mul and the raw hooks (_add, _neg, _encode,
    _decode, _identity_data, _generator_data, _contains_data); this class
    supplies validation and element wrapping.
    """

    kind = "abstract"

    def __init__(self, order):
        if not is_probable_prime(order):
            raise ValueError("group order %d is not prime" % order)
        self.order = order

    # -- identity/equality between group objects (structural) --------------

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        if not isinstance(other, CyclicGroup):
            return NotImplemented
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__,) + self._key())

    # -- element plumbing ---------------------------------------------------

    def _wrap(self, data):
        return GroupElement(self, data)

    def _check(self, element):
        if not isinstance(element, GroupElement) or element.group != self:
            raise ValueError("element does not belong to this group")

    @property
    def identity(self):
        return self._wrap(self._identity_data())

    @property
    def generator(self):
        return self._wrap(self._generator_data())

    def element(self, data):
        """Wrap raw data as an element, after a membership check."""
        if not self._contains_data(data):
            raise ValueError("%r is not in %s" % (data, self))
        return self._wrap(data)

    def contains(self, element):
        return (isinstance(element, GroupElement)
                and element.group == self
                and self._contains_data(element.data))

    # -- group law ------------------------------------------------------------

    def add(self, e1, e2):
        self._check(e1)
        self._check(e2)
        return self._wrap(self._add(e1.data, e2.data))

    def negate(self, e):
        self._check(e)
        return self._wrap(self._neg(e.data))

    def scalar_mul(self, k, e):
        """k*P for any integer k; k acts through its residue mod the order."""
        raise NotImplementedError

    # -- encodings -------------------------------------------------------------

    def encode(self, e):
        """Injective byte encoding; the identity encoding is distinguished."""
        self._check(e)
        return self._encode(e.data)

    def decode(self, blob):
        data = self._decode(blob)
        if not self._contains_data(data):
            raise ValueError("decoded bytes are not a group member")
        return self._wrap(data)

    def __repr__(self):
        return "%s(order=%d)" % (type(self).__name__, self.order)


class AdditiveOracleGroup(CyclicGroup):
    """Z/pZ under addition: the discrete log of Q = x*1 is x itself.

    Exists purely as a transparent test bed -- solvers run against it at
    full speed (scalar_mul is one mulmod) and every answer can be verified
    by eye.
    """

    kind = "oracle"

    def __init__(self, p):
        super().__init__(p)
        self._width = (p - 1).bit_length() + 7 >> 3

    def _key(self):
        return (self.order,)

    def _identity_data(self):
        return 0

    def _generator_data(self):
        return 1

    def _contains_data(self, data):
        return isinstance(data, int) and 0 <= data < self.order

    def _add(self, a, b):
        return (a + b) % self.order

    def _neg(self, a):
        return -a % self.order

    def scalar_mul(self, k, e):
        self._check(e)
        return self._wrap(k % self.order * e.data % self.order)

    def _encode(self, data):
        return data.to_bytes(self._width, "big")

    def _decode(self, blob):
        if len(blob) != self._width:
            raise ValueError("expected %d bytes" % self._width)
        return int.from_bytes(blob, "big")


class MultiplicativeGroup(CyclicGroup):
    """The order-p subgroup of (Z/rZ)*, written additively.

    `add` is multiplication mod r and `scalar_mul` is exponentiation, so a
    Schnorr-style subgroup plugs into the same solvers as a curve does.
    """

    kind = "multiplicative"

    def __init__(self, r, generator, p):
        super().__init__(p)
        if not is_probable_prime(r):
            raise ValueError("ambient modulus %d is not prime" % r)
        if (r - 1) % p:
            raise ValueError("group order %d does not divide %d - 1" % (p, r))
        g = generator % r
        if g in (0, 1) or pow(g, p, r) != 1:
            raise ValueError("%d does not generate an order-%d subgroup" % (generator, p))
        self.modulus = r
        self._gen = g
        self._width = (r - 1).bit_length() + 7 >> 3

    @classmethod
    def subgroup_of_units(cls, r, p, rng=None):
        """Find a generator of the order-p subgroup of (Z/rZ)* and build it."""
        if rng is None:
            rng = random.Random(r)
        cofactor = (r - 1) // p
        while True:
            h = rng.randrange(2, r - 1)
            g = pow(h, cofactor, r)
            if g != 1:
                return cls(r, g, p)

    def _key(self):
        return (self.modulus, self._gen, self.order)

    def _identity_data(self):
        return 1

    def _generator_data(self):
        return self._gen

    def _contains_data(self, data):
        return (isinstance(data, int) and 0 < data < self.modulus
                and pow(data, self.order, self.modulus) == 1)

    def _add(self, a, b):
        return a * b % self.modulus

    def _neg(self, a):
        return pow(a, -1, self.modulus)

    def scalar_mul(self, k, e):
        self._check(e)
        return self._wrap(pow(e.data, k % self.order, self.modulus))

    def _encode(self, data):
        return data.to_bytes(self._width, "big")

    def _decode(self, blob):
        if len(blob) != self._width:
            raise ValueError("expected %d bytes" % self._width)
        return int.from_bytes(blob, "big")


@dataclass(frozen=True)
class CurveParams:
    """Short-Weierstrass parameters y^2 = x^3 + a*x + b over F_q.

    `order` is the prime order of the base point (gx, gy); `cofactor` times
    `order` is the full point count.
    """

    q: int
    a: int
    b: int
    gx: int
    gy: int
    order: int
    cofactor: int = 1
    name: str = "unnamed"


_CURVE_FIELDS = ("q", "a", "b", "gx", "gy", "order", "cofactor")


def parse_curve_params(text):
    """Parse `key = value` lines (decimal or 0x hex; # comments) into params."""
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("bad curve-file line: %r" % raw)
        key, _, val = line.partition("=")
        key = key.strip().lower()
        values[key] = val.strip()
    missing = [f for f in ("q", "a", "b", "gx", "gy", "order") if f not in values]
    if missing:
        raise ValueError("curve file missing fields: %s" % ", ".join(missing))
    numbers = {f: parse_int(values[f]) for f in _CURVE_FIELDS if f in values}
    numbers.setdefault("cofactor", 1)
    return CurveParams(name=values.get("name", "unnamed"), **numbers)


def format_curve_params(params):
    """Canonical curve-file text; parse_curve_params round-trips it exactly."""
    lines = ["name = %s" % params.name]
    for f in _CURVE_FIELDS:
        lines.append("%s = %d" % (f, getattr(params, f)))
    return "\n".join(lines) + "\n"


def load_curve_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_curve_params(fh.read())


class CurveGroup(CyclicGroup):
    """The prime-order subgroup generated by the base point of `params`.

    Elements are stored as affine (x, y) tuples, the identity (the point at
    infinity) as None, and `add` is the affine group law; scalar_mul runs
    in Jacobian coordinates.  Construction validates the parameters: q and
    order prime, nonzero discriminant, base point on curve, order * base =
    identity.
    """

    kind = "curve"

    def __init__(self, params):
        super().__init__(params.order)
        q = params.q
        if not is_probable_prime(q) or q < 5:
            raise ValueError("field size %d is not an odd prime > 3" % q)
        if (4 * params.a ** 3 + 27 * params.b ** 2) % q == 0:
            raise ValueError("singular curve: discriminant is 0 mod q")
        self.params = params
        self.q = q
        self._width = (q - 1).bit_length() + 7 >> 3
        base = (params.gx % q, params.gy % q)
        if not self._on_curve(base):
            raise ValueError("base point is not on the curve")
        self._base = base
        if self._mul(params.order, base) is not None:
            raise ValueError("base point order does not divide %d" % params.order)

    def _key(self):
        p = self.params
        return (p.q, p.a % p.q, p.b % p.q, p.gx % p.q, p.gy % p.q, p.order)

    def _on_curve(self, data):
        x, y = data
        return (y * y - (x * x * x + self.params.a * x + self.params.b)) % self.q == 0

    def _identity_data(self):
        return None

    def _generator_data(self):
        return self._base

    def _mul(self, k, data):
        """k*P for an affine point P and k >= 0, without reducing k.

        Construction and the cofactor membership check need k unreduced:
        there the point is to test whether k kills the point.  Left-to-right
        double-and-add on Jacobian (X, Y, Z), which stands for the affine
        (X/Z^2, Y/Z^3) and for the identity when Z = 0.  P joins by mixed
        addition (Cohen, Miyaji and Ono 1998), and one inversion at the end
        returns to affine.
        """
        if data is None or k == 0:
            return None
        q, a = self.q, self.params.a
        px, py = data

        def double(X, Y, Z):
            if not (Y and Z):  # the identity and order-2 points double to O
                return 0, 1, 0
            YY = Y * Y % q
            S = 4 * X * YY % q
            ZZ = Z * Z % q
            M = (3 * X * X + a * ZZ * ZZ) % q
            X3 = (M * M - 2 * S) % q
            return X3, (M * (S - X3) - 8 * YY * YY) % q, 2 * Y * Z % q

        X, Y, Z = px, py, 1
        for bit in bin(k)[3:]:
            X, Y, Z = double(X, Y, Z)
            if bit == "0":
                continue
            if not Z:
                X, Y, Z = px, py, 1
                continue
            ZZ = Z * Z % q
            H = (px * ZZ - X) % q
            r = (py * ZZ * Z - Y) % q
            if H:
                HH = H * H % q
                HHH = H * HH % q
                V = X * HH % q
                X = (r * r - HHH - 2 * V) % q
                Y = (r * (V - X) - Y * HHH) % q
                Z = Z * H % q
            elif r:  # the accumulator is -P
                X, Y, Z = 0, 1, 0
            else:  # the accumulator is P
                X, Y, Z = double(X, Y, Z)
        if not Z:
            return None
        zi = pow(Z, -1, q)
        zi2 = zi * zi % q
        return (X * zi2 % q, Y * zi2 * zi % q)

    def scalar_mul(self, k, e):
        self._check(e)
        return self._wrap(self._mul(k % self.order, e.data))

    def _contains_data(self, data):
        if data is None:
            return True
        if not (isinstance(data, tuple) and len(data) == 2):
            return False
        x, y = data
        if not (0 <= x < self.q and 0 <= y < self.q) or not self._on_curve(data):
            return False
        if self.params.cofactor != 1:
            # point must land in the prime-order subgroup, not just on the curve
            return self._mul(self.order, data) is None
        return True

    def _add(self, p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        q = self.q
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2:
            if (y1 + y2) % q == 0:
                return None
            num = (3 * x1 * x1 + self.params.a) % q
            den = 2 * y1 % q
        else:
            num = (y2 - y1) % q
            den = (x2 - x1) % q
        slope = num * pow(den, -1, q) % q
        x3 = (slope * slope - x1 - x2) % q
        y3 = (slope * (x1 - x3) - y1) % q
        return (x3, y3)

    def _neg(self, data):
        if data is None:
            return None
        x, y = data
        return (x, -y % self.q)

    def _encode(self, data):
        if data is None:
            return b"\x00"
        x, y = data
        return b"\x04" + x.to_bytes(self._width, "big") + y.to_bytes(self._width, "big")

    def _decode(self, blob):
        if blob == b"\x00":
            return None
        if len(blob) != 1 + 2 * self._width or blob[:1] != b"\x04":
            raise ValueError("malformed point encoding")
        x = int.from_bytes(blob[1:1 + self._width], "big")
        y = int.from_bytes(blob[1 + self._width:], "big")
        return (x, y)


class CountingGroup:
    """Wraps a group and counts add/scalar_mul calls made through it.

    Solvers drive every group operation through the group object, so
    wrapping one lets tests audit step counts independently.
    """

    def __init__(self, inner):
        self.inner = inner
        self.scalar_muls = 0
        self.adds = 0

    @property
    def order(self):
        return self.inner.order

    @property
    def kind(self):
        return self.inner.kind

    @property
    def identity(self):
        return self.inner.identity

    @property
    def generator(self):
        return self.inner.generator

    def element(self, data):
        return self.inner.element(data)

    def contains(self, element):
        return self.inner.contains(element)

    def add(self, e1, e2):
        self.adds += 1
        return self.inner.add(e1, e2)

    def negate(self, e):
        return self.inner.negate(e)

    def scalar_mul(self, k, e):
        self.scalar_muls += 1
        return self.inner.scalar_mul(k, e)

    def encode(self, e):
        return self.inner.encode(e)

    def decode(self, blob):
        return self.inner.decode(blob)

    def reset(self):
        self.scalar_muls = 0
        self.adds = 0

    def __eq__(self, other):
        if isinstance(other, CountingGroup):
            return self.inner == other.inner
        return self.inner == other

    def __hash__(self):
        return hash(self.inner)

    def __repr__(self):
        return "CountingGroup(%r, scalar_muls=%d)" % (self.inner, self.scalar_muls)


def implicit_equal(a, b, group):
    """Whether scalars a and b act identically on the generator.

    For a prime-order group this holds iff a = b mod p, so equality of
    hidden exponents can be decided without ever seeing them.
    """
    P = group.generator
    return group.scalar_mul(a, P) == group.scalar_mul(b, P)


# ---------------------------------------------------------------------------
# Desk-scale curve generation.


def _count_points(q, a, b):
    # q = 3 mod 4 callers only; brute Legendre sum, fine for 4-digit q.
    count = 1  # infinity
    for x in range(q):
        rhs = (x * x * x + a * x + b) % q
        if rhs == 0:
            count += 1
        elif pow(rhs, (q - 1) // 2, q) == 1:
            count += 2
    return count


def _smooth_part_ok(n, bound):
    for p in range(2, bound + 1):
        while n % p == 0:
            n //= p
    return n == 1


def find_small_curve(q_min, q_max, rng, smooth_bound=64, max_tries=20000):
    """Search for a prime-order curve over a small F_q with smooth order-1.

    Returns CurveParams with cofactor 1.  Restricting to q = 3 mod 4 keeps
    square roots cheap when picking the base point.  `smooth_bound` caps the
    largest prime factor of order-1 so the group has test-sized subgroups.
    """
    for _ in range(max_tries):
        q = rng.randrange(q_min | 3, q_max, 4)
        if not is_probable_prime(q):
            continue
        a = rng.randrange(1, q)
        b = rng.randrange(1, q)
        if (4 * a ** 3 + 27 * b ** 2) % q == 0:
            continue
        n = _count_points(q, a, b)
        if not is_probable_prime(n) or n == q:
            continue
        if not _smooth_part_ok(n - 1, smooth_bound):
            continue
        for x in range(q):
            rhs = (x * x * x + a * x + b) % q
            if rhs and pow(rhs, (q - 1) // 2, q) == 1:
                y = pow(rhs, (q + 1) // 4, q)
                params = CurveParams(q=q, a=a, b=b, gx=x, gy=y, order=n,
                                     cofactor=1, name="desk-%d-%d" % (q, n))
                CurveGroup(params)  # construction re-validates everything
                return params
    raise RuntimeError("no suitable curve found in %d tries" % max_tries)


_DESK_CURVE = None


def desk_curve():
    """A fixed prime-order demo curve (deterministic seeded search, cached)."""
    global _DESK_CURVE
    if _DESK_CURVE is None:
        params = find_small_curve(1500, 5000, random.Random(0x5eed))
        _DESK_CURVE = CurveParams(
            q=params.q, a=params.a, b=params.b, gx=params.gx, gy=params.gy,
            order=params.order, cofactor=params.cofactor, name="desk")
    return _DESK_CURVE
