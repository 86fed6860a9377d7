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
bytes with a distinguished identity encoding.

A backend writes raw hooks on element data (`_add`, `_mul`, `_contains_data`,
optionally `_encode` and `_sweep`); CyclicGroup checks and wraps elements
and hands `_mul` the signed residue of k, the one with |k| <= p/2.

`sweep_keys(P)` serves the BSGS sweeps, which multiply one fixed point
many times and only look up a key of each product.  It checks P and
returns the backend's `_sweep(start, ratio, count, probe)`, whose own loop
hands the key of (start * ratio^i mod p) * P for each i < count to
`probe` and yields (i, hit) only for a hit that is not None (0 is one).
The default key is `_encode(_mul(k, P))`; the oracle group's key is the
product's int, the last key times the ratio: one mulmod per key.
MultiplicativeGroup keys the element's int from rows of powers that turn
each exponentiation into a few multiplies and a reduction; CurveGroup keys
encodings from a Lim-Lee comb table, built at two field inversions, that
makes each multiply ~3x cheaper than `_mul`'s sliding window on P-256.
Keys are canonical only within one group object.  scalar_mul reads no table.

`CountingGroup` is a counting layer over any of them: it counts `add` and
`scalar_mul`, makes each sweep key one of its own scalar_muls and encodes,
and passes everything else through to the group it wraps.

`desk_curve()` is a constant: the order-1999 curve over F_2063 that the
demos and tests use, validated by CurveGroup on construction.
"""

import re
from dataclasses import dataclass

from .field import is_probable_prime, parse_int

__all__ = [
    "GroupElement", "CyclicGroup", "AdditiveOracleGroup",
    "MultiplicativeGroup", "CurveGroup", "CurveParams", "CountingGroup",
    "implicit_equal", "parse_curve_params", "format_curve_params",
    "load_curve_file", "desk_curve",
]


def _sweep_of(key_of, p):
    """The sweep (see CyclicGroup.sweep_keys) whose key of k*P is key_of(k),
    for keys whose group arithmetic dwarfs a call."""
    def sweep(start, ratio, count, probe):
        k = start % p
        for i in range(count):
            hit = probe(key_of(k))
            if hit is not None:
                yield i, hit
            k = k * ratio % p
    return sweep


class GroupElement:
    """An element of a CyclicGroup; + and unary - delegate to the group."""

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

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and self.data == other.data

    def __hash__(self):
        return hash((self.group, self.data))

    def is_identity(self):
        return self.data == self.group._identity

    def __repr__(self):
        return "<%s %r>" % (self.group.kind, self.data)


class CyclicGroup:
    """Base class: a cyclic group of verified prime order p.

    Subclasses implement the raw hooks _add, _mul and _contains_data, and
    set the raw data of the identity and the generator as `_identity` and
    `_gen`; a prepared `_sweep` is optional.  This class supplies validation,
    element wrapping, scalar_mul (`_mul` of k's signed residue), sweep_keys
    and the default encoding of integer data as `_width` big-endian bytes.
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
        return other is self or (type(self) is type(other)  # before _key()
                                 and self._key() == other._key())

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
        return self._wrap(self._identity)

    @property
    def generator(self):
        return self._wrap(self._gen)

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
        """-P, which is (order - 1) * P: the scalar multiple -1."""
        return self.scalar_mul(-1, e)

    def scalar_mul(self, k, e):
        """k*P: `_mul` of the k' = k mod the order with |k'| <= order / 2."""
        self._check(e)
        k %= self.order
        return self._wrap(self._mul(k - self.order if 2 * k > self.order else k,
                                    e.data))

    def sweep_keys(self, e):
        """Check e; return _sweep(e.data), a sweep(start, ratio, count, probe).

        For each i < count in turn the sweep calls probe on a key of
        (start * ratio^i mod order) * e and yields (i, hit) if the hit is
        not None, before the next key; keys are equal exactly when those
        points are.
        """
        self._check(e)
        return self._sweep(e.data)

    def _sweep(self, data):
        """The unprepared sweep: k's key is _encode(_mul(k, data))."""
        return _sweep_of(lambda k: self._encode(self._mul(k, data)),
                         self.order)

    # -- encodings -------------------------------------------------------------

    def encode(self, e):
        """Injective byte encoding; the identity encoding is distinguished."""
        self._check(e)
        return self._encode(e.data)

    def _encode(self, data):
        return data.to_bytes(self._width, "big")

    def __repr__(self):
        return "%s(order=%d)" % (type(self).__name__, self.order)


class AdditiveOracleGroup(CyclicGroup):
    """Z/pZ under addition: the discrete log of Q = x*1 is x itself.

    Exists purely as a transparent test bed -- solvers run against it at
    full speed (scalar_mul is one mulmod) and every answer can be verified
    by eye.
    """

    kind = "oracle"
    _identity, _gen = 0, 1

    def __init__(self, p):
        super().__init__(p)
        self._width = (p - 1).bit_length() + 7 >> 3

    def _key(self):
        return (self.order,)

    def _contains_data(self, data):
        return type(data) is int and 0 <= data < self.order

    def _add(self, a, b):
        return (a + b) % self.order

    def _mul(self, k, data):
        return k * data % self.order

    def _sweep(self, data):
        p = self.order

        def sweep(start, ratio, count, probe):
            k = start * data % p
            for i in range(count):
                hit = probe(k)
                if hit is not None:
                    yield i, hit
                k = k * ratio % p

        return sweep


# Digit bits of a multiplicative power table.  Rows are 2^w entries each,
# ceil(bits(p) / w) of them, and a key costs one multiply fewer than there
# are rows (and a reduction mod r per 8 rows), so K keys read from one
# preparation cost rows*2^w + K*(rows-1) multiplies.  On the campaign
# benchmark's 24-bit p that is 256 + 3K at w = 6, 768 + 2K at w = 8
# (break-even K = 512), 3072 + 2K at w = 10 and 8192 + K at w = 12 (ahead
# of 8 only past K ~ 7,400).  One preparation of Q serves every thread's
# baby keys, 1,726 per campaign there (mean of 420 items at seed 1: threads
# whose coset was already swept skip theirs, and the winner stops early).
# With its 129-bit r (2-vCPU Xeon, Python 3.11.7) a plain pow takes ~10 us;
# at 6 and 8 bits a preparation takes ~90 and ~230 us and a key ~1.2 and
# ~0.85 us (timeit minima), and the campaign benchmark ran 1.29x the items/s
# at 8 (BENCH_25.json).
POWER_WINDOW = 8


class MultiplicativeGroup(CyclicGroup):
    """The order-p subgroup of (Z/rZ)*, written additively.

    `add` is multiplication mod r and `scalar_mul` is exponentiation, so a
    Schnorr-style subgroup plugs into the same solvers as a curve does.
    `_mul` is the built-in pow; `_sweep` builds the point's power
    rows once and raises it by a product of row entries (Brickell, Gordon,
    McCurley and Wilson 1992): ceil(bits(p) / POWER_WINDOW) rows of
    2^POWER_WINDOW entries, and rows - 1 multiplies and a reduction mod r
    per 8 rows for each key (two and one on a 24-bit p), probed inline.
    """

    kind = "multiplicative"
    _identity = 1

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

    def _key(self):
        return (self.modulus, self._gen, self.order)

    def _contains_data(self, data):
        return (type(data) is int and 0 < data < self.modulus
                and pow(data, self.order, self.modulus) == 1)

    def _add(self, a, b):
        return a * b % self.modulus

    def _mul(self, k, data):  # k reduced: a negative k would cost an inverse
        return pow(data, k % self.order, self.modulus)

    def _power_rows(self, base):
        """Radix-2^POWER_WINDOW power rows of the raw element `base`.

        Row c holds base^(j * 2^(w*c)) mod r for j = 0 .. 2^w - 1, with
        w = POWER_WINDOW and ceil(bits(order) / w) rows, so for a reduced k
        the product over c of row c's entry at digit c of k is base^k: that
        is one fewer modular multiply than there are rows.
        """
        r, w = self.modulus, POWER_WINDOW
        rows = []
        for _ in range(-(-self.order.bit_length() // w)):
            row = [1]
            for _ in range((1 << w) - 1):
                row.append(row[-1] * base % r)
            rows.append(row)
            base = row[-1] * base % r
        return rows

    def _sweep(self, data):
        p, r = self.order, self.modulus
        w, mask = POWER_WINDOW, (1 << POWER_WINDOW) - 1
        first, *rest = self._power_rows(data)
        # a product is reduced after 8 rows and each further 8, so it stays
        # a few words long: once per key on orders of up to 8 rows
        head, runs = rest[:7], [rest[i:i + 8] for i in range(7, len(rest), 8)]

        def sweep(start, ratio, count, probe):
            k = start % p
            for i in range(count):
                j, acc = k, first[k & mask]
                for row in head:
                    j >>= w
                    acc *= row[j & mask]
                if runs:  # only orders of more than 8 rows
                    for run in runs:
                        acc %= r
                        for row in run:
                            j >>= w
                            acc *= row[j & mask]
                hit = probe(acc % r)
                if hit is not None:
                    yield i, hit
                k = k * ratio % p

        return sweep


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
        if key != "name" and key not in _CURVE_FIELDS:
            raise ValueError("unknown curve-file key %r" % key)
        if key in values:
            raise ValueError("curve-file key %r is given twice" % key)
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


# Rows of a comb; its table holds 2^COMB_TEETH - 1 points.  With w =
# ceil(256 / teeth), a P-256 key costs w doublings, <= w mixed additions and
# an inversion, a build (teeth - 1) * w doublings, 2^teeth - teeth - 1
# additions and two inversions.  A keyaudit-p256 item builds one comb and
# reads ~4.8 keys.  At timeit minima of 4.0, 5.2 and 22 us per doubling,
# addition and inversion, this op-count model gives 4.06, 3.79, 3.64 and
# 3.79 ms of curve math per item at 4, 5, 6 and 7 teeth over 320 items.
# Interleaved in-process audits of them (2-vCPU Xeon, Python 3.11.7, CPU-time
# medians of 24 rounds of 80 items) took 6.60, 6.23, 5.32 and 7.00 ms.
COMB_TEETH = 6

# Jacobian (X, Y, Z) stands for the affine (X/Z^2, Y/Z^3), and for the
# identity when Z = 0.  `add` and both multiplies are built from these steps.


def _double(X, Y, Z, a, q):
    if not (Y and Z):  # the identity and order-2 points double to O
        return 0, 1, 0
    YY = Y * Y % q
    S = 4 * X * YY % q
    ZZ = Z * Z % q
    M = (3 * X * X + a * ZZ * ZZ) % q
    X3 = (M * M - 2 * S) % q
    return X3, (M * (S - X3) - 8 * YY * YY) % q, 2 * Y * Z % q


def _add_affine(X, Y, Z, px, py, a, q):
    """(X, Y, Z) + (px, py) by mixed addition (Cohen, Miyaji and Ono 1998)."""
    if not Z:
        return px, py, 1
    ZZ = Z * Z % q
    H = (px * ZZ - X) % q
    r = (py * ZZ * Z - Y) % q
    if H:
        HH = H * H % q
        HHH = H * HH % q
        V = X * HH % q
        X3 = (r * r - HHH - 2 * V) % q
        return X3, (r * (V - X3) - Y * HHH) % q, Z * H % q
    if r:  # the accumulator is -P
        return 0, 1, 0
    return _double(X, Y, Z, a, q)  # the accumulator is P


def _to_affine_all(points, q):
    """The affine point (or None for O) of each Jacobian point in a list,
    at one inversion for them all; a single point is a list of one.

    Montgomery's trick (Math. Comp. 1987): invert the product of the
    nonzero Zs, then peel each point's inverse off it, last point first.
    """
    prefix = [1]
    for _, _, Z in points:
        prefix.append(prefix[-1] * (Z or 1) % q)
    inv = pow(prefix.pop(), -1, q)
    out = []
    for (X, Y, Z), before in zip(points[::-1], prefix[::-1]):
        zi, inv = inv * before % q, inv * (Z or 1) % q
        zi2 = zi * zi % q
        out.append((X * zi2 % q, Y * zi2 * zi % q) if Z else None)
    return out[::-1]


class CurveGroup(CyclicGroup):
    """The prime-order subgroup generated by the base point of `params`.

    Elements are stored as affine (x, y) tuples, the identity (the point at
    infinity) as None; `add` and the multiplies run in Jacobian
    coordinates.  `_mul` is a width-4 sliding window, serving scalar_mul,
    construction and cofactor membership; `_sweep` builds the point's
    comb table once and multiplies from it (`_comb_mul`).  All of them
    share one doubling and one mixed addition.  Construction validates the
    parameters: q and order prime, nonzero discriminant, cofactor * order
    within Hasse's bound ((q + 1 - #E)^2 <= 4q, in integers), base point on
    curve, order * base = identity.
    """

    kind = "curve"
    _identity = None

    def __init__(self, params):
        super().__init__(params.order)
        q = params.q
        if not is_probable_prime(q) or q < 5:
            raise ValueError("field size %d is not an odd prime > 3" % q)
        if (4 * params.a ** 3 + 27 * params.b ** 2) % q == 0:
            raise ValueError("singular curve: discriminant is 0 mod q")
        if (q + 1 - params.cofactor * params.order) ** 2 > 4 * q:
            raise ValueError("cofactor * order is outside Hasse's bound")
        self.params = params
        self.q = q
        self._width = (q - 1).bit_length() + 7 >> 3
        self._gen = (params.gx % q, params.gy % q)
        if not self._on_curve(self._gen):
            raise ValueError("base point is not on the curve")
        if self._mul(params.order, self._gen) is not None:
            raise ValueError("base point order does not divide %d" % params.order)

    def _key(self):
        p = self.params
        return (p.q, p.a % p.q, p.b % p.q, *self._gen, p.order)

    def _on_curve(self, data):
        x, y = data
        return (y * y - (x * x * x + self.params.a * x + self.params.b)) % self.q == 0

    def _mul(self, k, data):
        """k*P for an affine point P and any integer k, without reducing k.

        Construction and the cofactor membership check need k unreduced:
        there the point is to test whether k kills the point; scalar_mul
        passes the signed residue of k, so that -P is one window of 1.  A
        left-to-right sliding window of width 4 over |k| on Jacobian
        coordinates: P, 2P, ... up to the largest window's multiple (15P
        at most) are summed first and taken to affine at one shared
        inversion, then each window is its doublings and one mixed addition
        of its odd multiple.  One more inversion returns the result,
        negated for k < 0, to affine.
        """
        if data is None or k == 0:
            return None
        q, a = self.q, self.params.a
        # windows of |k|: a lone 0, or up to 4 bits that begin and end in 1
        windows = [(len(bits), int(bits, 2)) for bits
                   in re.findall("1(?:[01]{0,2}1)?|0", bin(abs(k))[2:])]
        run = [(*data, 1)]
        for _ in range(max(j for _, j in windows) - 1):
            run.append(_add_affine(*run[-1], *data, a, q))
        multiples = [None] + _to_affine_all(run, q)  # jP up to the top window
        X, Y, Z = 0, 1, 0
        for doublings, j in windows:
            for _ in range(doublings):
                X, Y, Z = _double(X, Y, Z, a, q)
            point = multiples[j]  # O for "0" and on tiny curves
            if point is not None:
                X, Y, Z = _add_affine(X, Y, Z, *point, a, q)
        return _to_affine_all([(X, -Y if k < 0 else Y, Z)], q)[0]

    def _comb_table(self, data):
        """The comb table of the affine point `data` (Lim and Lee 1994).

        With w = ceil(bits(order) / COMB_TEETH), entry j of the table is
        the sum of 2^(i*w) * P over the set bits i of j (entry 0 is O).
        `_comb_mul` then reads k as COMB_TEETH rows of w bits and does w
        doublings and at most w mixed additions.  The teeth 2^(i*w) * P are
        doubled in Jacobian, and each entry is a mixed addition to a smaller
        one; each batch goes to affine at one inversion.  Returns (table, w).
        """
        q, a = self.q, self.params.a
        w = -(-self.order.bit_length() // COMB_TEETH)
        X, Y, Z = *data, 1
        teeth = [(X, Y, Z)]
        for _ in range(COMB_TEETH - 1):
            for _ in range(w):
                X, Y, Z = _double(X, Y, Z, a, q)
            teeth.append((X, Y, Z))
        teeth = _to_affine_all(teeth, q)  # O on small-order curves
        sums = [(0, 1, 0)]
        for j in range(1, 1 << COMB_TEETH):
            top = j.bit_length() - 1
            rest, tooth = sums[j ^ (1 << top)], teeth[top]
            sums.append(rest if tooth is None
                        else _add_affine(*rest, *tooth, a, q))
        return _to_affine_all(sums, q), w

    def _comb_mul(self, k, table, w):
        """k*P for any integer k from P's comb table (see _comb_table).

        Column c of the comb indexes the table with bit c of each of the
        COMB_TEETH rows of k mod the order, the top row as the top index
        bit.  Because k is reduced, each addend and the accumulator before
        it stand for distinct nonzero multiples whose sum is below the
        order, so the accumulator never meets the addend or its negative.
        """
        q, a = self.q, self.params.a
        bits = format(k % self.order, "0%db" % (COMB_TEETH * w))
        X, Y, Z = 0, 1, 0
        for c in range(w):
            X, Y, Z = _double(X, Y, Z, a, q)
            j = int(bits[c::w], 2)
            if j:
                X, Y, Z = _add_affine(X, Y, Z, *table[j], a, q)
        return _to_affine_all([(X, Y, Z)], q)[0]

    def _sweep(self, data):
        if data is None:  # the comb has nothing to add: every key is O's
            return super()._sweep(data)
        table, w = self._comb_table(data)
        return _sweep_of(lambda k: self._encode(self._comb_mul(k, table, w)),
                         self.order)

    def _contains_data(self, data):
        if data is None:
            return True
        if not (isinstance(data, tuple) and len(data) == 2
                and all(type(c) is int for c in data)):
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
        point = _add_affine(*p1, 1, *p2, self.params.a, self.q)
        return _to_affine_all([point], self.q)[0]

    def _encode(self, data):
        if data is None:
            return b"\x00"
        x, y = data
        return b"\x04" + x.to_bytes(self._width, "big") + y.to_bytes(self._width, "big")


class CountingGroup:
    """A counting layer: counts add and scalar_mul calls made through it.

    Solvers drive every group operation through the group object, so
    wrapping one lets tests audit step counts independently.  Its sweep
    is the generic loop: each key is one counted scalar_mul and one
    encode, which subclasses may extend, made as it is probed; everything
    else passes through uncounted.
    """

    def __init__(self, inner):
        self.inner = inner
        self.scalar_muls = 0
        self.adds = 0

    def __getattr__(self, name):
        # Only reached for names the layer lacks.  copy and pickle build the
        # object without running __init__, so `inner` may be missing too.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def add(self, e1, e2):
        self.adds += 1
        return self.inner.add(e1, e2)

    def scalar_mul(self, k, e):
        self.scalar_muls += 1
        return self.inner.scalar_mul(k, e)

    def encode(self, e):  # spelled out so subclasses can extend it via super()
        return self.inner.encode(e)

    def sweep_keys(self, e):
        self._check(e)
        return _sweep_of(lambda k: self.encode(self.scalar_mul(k, e)),
                         self.order)

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
# The desk-scale demo curve.

# y^2 = x^3 + 1500x + 604 over F_2063, base point (1, 261) of prime order
# 1999, with 1998 = 2 * 3^3 * 37 giving subgroups of test size.  Cofactor 1
# by Hasse: #E lies within 2*sqrt(2063) < 91 of 2064, so in [1974, 2154];
# the point of order 1999 (checked by CurveGroup) makes 1999 divide #E, and
# 2 * 1999 > 2154, so #E = 1999.
_DESK = CurveParams(q=2063, a=1500, b=604, gx=1, gy=261, order=1999,
                    cofactor=1, name="desk")


def desk_curve():
    """The fixed prime-order demo curve (see _DESK)."""
    return _DESK
