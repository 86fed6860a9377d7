"""Records of search targets, with the five NIST prime curves built in,
and the divisors and grids of the paper's P-256 probability tables.

A record carries a target's prime order p, the factorization of p-1
and an audit pair (d1, d2) of coprime subgroup orders, d1*d2 = p-1;
desk, curve files and bare orders get one too.  Two published source
tables for the built-ins contain arithmetic slips, fixed here so the
defining identities actually hold (verified by multiplication):

* P-224: the factor 17 belongs in the p-1 list (the published d2 =
  533642580 = 2^2 * 3^6 * 5 * 17 * 2153 already contains it).
* P-384: the widely quoted d1 is exactly (p-1)/(3*d2) -- one factor of 3
  short -- so this catalog stores d1 = (p-1)/d2 instead.

Only P-256's field prime q is on record; none of the records carry
Weierstrass coefficients, so point-form audits of real keys need an
external curve file, while scalar-form audits (x supplied directly) work
from the record alone.

A record derives its validated curve group, its oracle group for
scalar-form audits, the primitive root of (Z/pZ)* and the SubgroupSpec of
each audited d once, on first use.  The giant table of each audited
subgroup is kept with the group that searched it (a `kept=True` solve), so
repeated audits against one record derive and build none of them again.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .bsgs import DlpInstance, Found, solve_in_subgroup, theorem_budget
from .factoring import (FactoredInteger, check_divisor, factor,
                        find_primitive_root, subgroup_generator)
from .field import is_probable_prime
from .groups import AdditiveOracleGroup, CurveGroup
from .probability import int_log2

__all__ = [
    "CurveRecord", "CheckResult", "ConsistencyReport", "SubgroupCheck",
    "KeyAuditReport", "load_builtin", "builtin_names", "verify_record",
    "audit_key", "record_from_params", "record_from_order",
    "DEFAULT_AUDIT_BUDGET", "P256_TABLE_DIVISORS", "P256_TABLE_GRIDS",
]

DEFAULT_AUDIT_BUDGET = 1 << 32


@dataclass(frozen=True)
class CurveRecord:
    """Audit-relevant constants for one search target.

    q is the field prime when known (None otherwise); params is an optional
    CurveParams for point arithmetic, set on desk and curve files only.
    `group`, `oracle_group`, `primitive_root` and each `subgroup(d)` are
    derived on first use and kept for the life of the record, and with the
    two groups the giant tables that audits build in them;
    `dataclasses.replace` gives a record that derives them anew.
    """

    name: str
    p: int
    factors: FactoredInteger
    d1: int
    d2: int
    q: int = None
    params: object = None

    @cached_property
    def group(self):
        """The validated CurveGroup of `params`: ValueError if they are
        invalid, or absent as on every built-in (the one refusal of
        point-form work)."""
        if self.params is None:
            raise ValueError(self.name + " carries no point parameters, "
                             "which point-form work needs: use desk or a "
                             "curve file")
        return CurveGroup(self.params)

    @cached_property
    def oracle_group(self):
        """The AdditiveOracleGroup mod p in which scalar-form audits search."""
        return AdditiveOracleGroup(self.p)

    @cached_property
    def primitive_root(self):
        """A generator of (Z/pZ)*, from the listed factors of p-1."""
        return find_primitive_root(self.p, self.factors)

    def subgroup(self, d):
        """The SubgroupSpec of order d from `primitive_root`, kept per d."""
        specs = vars(self).setdefault("_subgroups", {})
        if d not in specs:
            specs[d] = subgroup_generator(self.p, d,
                                          generator=self.primitive_root)
        return specs[d]


def _fi(p, factors):
    return FactoredInteger(n=p - 1, factors=factors)


_P192_P = 6277101735386680763835789423176059013767194773182842284081
_P224_P = 26959946667150639794667015087019625940457807714424391721682722368061
_P256_P = 115792089210356248762697446949407573529996955224135760342422259061068512044369
_P384_P = int(
    "39402006196394479212279040100143613805079739270465446667946905279627"
    "659399113263569398956308152294913554433653942643")
_P521_P = int(
    "68647976601306097149819007990813932172694353001433054093944634591855"
    "43183397655394245057746333217197532963996371363321113864768612440380"
    "340372808892707005449")

_BUILTINS = {
    "P-192": CurveRecord(
        name="P-192",
        p=_P192_P,
        factors=_fi(_P192_P, [
            (2, 4), (5, 1), (2389, 1),
            (9564682313913860059195669, 1),
            (3433859179316188682119986911, 1)]),
        d1=656279166350909980926771898430320,
        d2=9564682313913860059195669),
    "P-224": CurveRecord(
        name="P-224",
        p=_P224_P,
        factors=_fi(_P224_P, [
            (2, 2), (3, 6), (5, 1), (17, 1), (2153, 1),
            (50520606258875818707470860153287666700917696099933389351507, 1)]),
        d1=50520606258875818707470860153287666700917696099933389351507,
        d2=533642580),
    "P-256": CurveRecord(
        name="P-256",
        p=_P256_P,
        q=int("11579208921035624876269744694940757353008614341529031419553363"
              "1308867097853951"),
        factors=_fi(_P256_P, [
            (2, 4), (3, 1), (71, 1), (131, 1), (373, 1), (3407, 1),
            (17449, 1), (38189, 1), (187019741, 1), (622491383, 1),
            (1002328039319, 1),
            (2624747550333869278416773953, 1)]),
        d1=1489153224408067225170753316415649493584,
        d2=77757001302792844776776389119582520177),
    "P-384": CurveRecord(
        name="P-384",
        p=_P384_P,
        factors=_fi(_P384_P, [
            (2, 1), (3, 2), (7, 2), (13, 1),
            (1124679999981664229965379347, 1),
            (int("30554657881403520027339469061445610906412496061604078843"
                 "65391979704929268480326390471"), 1)]),
        d1=int("35033970726817276063347435225853537465292567984235236802133"
               "584439296718992395422393140486"),
        d2=1124679999981664229965379347),
    "P-521": CurveRecord(
        name="P-521",
        p=_P521_P,
        factors=_fi(_P521_P, [
            (2, 3), (7, 1), (11, 1), (1283, 1), (1458105463, 1),
            (1647781915921980690468599, 1),
            (int("36151947948819300102169425591038475930502657031732923837"
                 "01371712350878926821661243755933835426896058418509759880"
                 "171943"), 1)]),
        d1=int("41660838693508544985867910689448236209429313575525968203050"
               "98954973694271292315253349654329419600683157636543108630210"
               "814256821981752"),
        d2=1647781915921980690468599),
}

# Divisors of P-256's p-1 used by the headline probability grids; the first
# three differ by factors 2 and 3, giving the 1-bit diagonal trade-off, and
# the last reaches ~2^220.5 (per-thread work ~2^110.25).
P256_TABLE_DIVISORS = (
    5344274495032941459639941436409709731020474123788264129719829,
    10688548990065882919279882872819419462040948247576528259439658,
    16032823485098824378919824309229129193061422371364792389159487,
    18207943204577231552993280473847881053586755339746615889955457403,
    2385240559799617333442119742074072418019864949506806681584164919793,
)

# The paper's three P-256 grids as (divisors, log2 thread counts); each grid
# crosses even odds of success.  `prob-table --paper-256` prints them.
P256_TABLE_GRIDS = ((P256_TABLE_DIVISORS[:3], (45, 50, 52, 53, 54, 55, 56)),
                    (P256_TABLE_DIVISORS[3:4], (41, 42, 43, 44)),
                    (P256_TABLE_DIVISORS[4:], (33, 34, 35, 36, 37)))


def builtin_names():
    return tuple(_BUILTINS)


def load_builtin(name):
    """The built-in record for a NIST prime curve (exact decimal constants)."""
    try:
        return _BUILTINS[name.upper()]
    except KeyError:
        raise ValueError("unknown curve %r; available: %s"
                         % (name, ", ".join(_BUILTINS))) from None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ConsistencyReport:
    """A record's checks: `render_text()`, and `table()` for machine formats."""

    curve: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def render_text(self):
        lines = ["consistency report: %s" % self.curve]
        for c in self.checks:
            lines.append("  [%s] %-28s %s"
                         % ("pass" if c.passed else "FAIL", c.name, c.detail))
        lines.append("overall: %s" % ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)

    def table(self):
        """(header, rows) for the machine formats: one row per check."""
        return (("curve", "check", "passed", "detail"),
                [(self.curve, c.name, c.passed, c.detail)
                 for c in self.checks])


def _valuation(n, f):
    """The exponent of f in n; 0 for f < 2, which no prime is."""
    if f < 2:
        return 0
    v = 0
    while n % f == 0:
        v += 1
        n //= f
    return v


def verify_record(rec):
    """Re-derive every structural claim a record makes; report per check."""
    checks = []

    def check(name, passed, detail=""):
        checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))

    check("order p is prime", is_probable_prime(rec.p))
    check("listed factors are prime",
          all(is_probable_prime(f) and e >= 1 for f, e in rec.factors.factors))
    check("factor product equals p-1", rec.factors.complete
          and rec.factors.n == rec.p - 1
          and rec.factors.product() == rec.p - 1)
    check("d1 * d2 equals p-1", rec.d1 * rec.d2 == rec.p - 1,
          "log2 d1 = %.2f, log2 d2 = %.2f"
          % (int_log2(rec.d1), int_log2(rec.d2)))
    check("gcd(d1, d2) equals 1", gcd(rec.d1, rec.d2) == 1)
    partition_ok = all(
        (_valuation(rec.d1, f), _valuation(rec.d2, f)) in ((e, 0), (0, e))
        for f, e in rec.factors.factors)
    check("audit pair partitions the factors", partition_ok)
    if rec.q is not None:
        check("field prime q is prime", is_probable_prime(rec.q))
    if rec.params is not None:
        detail = ""
        try:
            ok = (rec.params.order == rec.p) and bool(rec.group)
        except ValueError as e:
            ok, detail = False, str(e)
        if rec.q is not None and rec.params.q != rec.q:
            ok, detail = False, ("params q = %d, record q = %d"
                                 % (rec.params.q, rec.q))
        check("curve params match record", ok, detail)
    return ConsistencyReport(curve=rec.name, checks=tuple(checks))


@dataclass(frozen=True)
class SubgroupCheck:
    """Membership verdict for one subgroup order d.

    `steps` is the search's logical cost: the giant keys of its single
    plan plus the baby steps taken, so a non-member reads
    theorem_budget(d).  The search keeps its table with the group
    (`solve_in_subgroup(kept=True)`), so later audits do only the baby
    steps but are charged the same.
    """

    d: int
    log2_d: float
    required_steps: int
    feasible: bool
    status: str  # "member" | "non-member" | "infeasible"
    steps: int
    mechanism: str  # "scalar" | "point"


@dataclass(frozen=True)
class KeyAuditReport:
    """One verdict per subgroup: `render_text()`, and `table()` for machine
    formats."""

    curve: str
    budget: int
    entries: tuple
    recommendation: str  # "discard" | "keep" | "inconclusive"

    def render_text(self):
        lines = ["key audit: %s (budget %d scalar muls)"
                 % (self.curve, self.budget)]
        for e in self.entries:
            cost = ("%d steps used" % e.steps) if e.feasible else \
                ("needs ~2^%.1f steps" % int_log2(max(e.required_steps, 1)))
            lines.append("  d ~ 2^%-8.2f [%s] %-11s (%s, %s)"
                         % (e.log2_d, e.mechanism, e.status, cost,
                            "feasible" if e.feasible else "over budget"))
        lines.append("recommendation: %s" % self.recommendation)
        return "\n".join(lines)

    def table(self):
        """(header, rows) for the machine formats: one row per subgroup."""
        return (("curve", "d", "log2_d", "mechanism", "feasible", "status",
                 "steps", "required_steps"),
                [(self.curve, e.d, e.log2_d, e.mechanism, e.feasible,
                  e.status, e.steps, e.required_steps)
                 for e in self.entries])


def audit_key(rec, x=None, point=None, subgroups=None,
              budget=DEFAULT_AUDIT_BUDGET):
    """Check a key against small subgroups of (Z/pZ)*; advise discard on a hit.

    Exactly one of `x` (the secret scalar) or `point` (the public key, as
    a GroupElement on rec.params' curve) must be given.  `subgroups`
    defaults to the record's audit pair (d1, d2).  Subgroups whose
    worst-case cost theorem_budget(d), both sweeps of a single solve,
    exceeds `budget` (>= 0) are reported as infeasible, not attempted.
    """
    if (x is None) == (point is None):
        raise ValueError("supply exactly one of x= or point=")
    if budget < 0:
        raise ValueError("audit budget must be >= 0, got %d" % budget)
    if subgroups is None:
        subgroups = (rec.d1, rec.d2)
    for d in subgroups:
        check_divisor(rec.p, d)

    if point is not None:
        group, mechanism = rec.group, "point"
    else:
        group, mechanism = rec.oracle_group, "scalar"
        point = group.element(x % rec.p)
    instance = DlpInstance(group=group, P=group.generator, Q=point)

    entries = []
    for d in subgroups:
        required = theorem_budget(d)
        feasible, status, steps = required <= budget, "infeasible", 0
        if feasible:
            H = rec.subgroup(d)
            # budget >= theorem_budget(d) covers the whole search: no cap binds
            verdict = solve_in_subgroup(instance, H, kept=True)
            status = "member" if isinstance(verdict, Found) else "non-member"
            steps = verdict.steps
        entries.append(SubgroupCheck(
            d=d, log2_d=int_log2(d), required_steps=required,
            feasible=feasible, status=status, steps=steps,
            mechanism=mechanism))
    recommendation = ("discard" if any(e.status == "member" for e in entries)
                      else "keep" if any(e.feasible for e in entries)
                      else "inconclusive")
    return KeyAuditReport(curve=rec.name, budget=budget,
                          entries=tuple(entries),
                          recommendation=recommendation)


def _record(name, p, q=None, params=None):
    """The record of order p, p-1 factored; like the built-ins', its audit
    pair is p-1's largest prime power (d2, 1 for p = 2) and its cofactor."""
    factored = factor(p - 1)
    if not factored.complete:
        raise ValueError("need the complete factorization of order-1")
    d2 = max((f ** e for f, e in factored.factors), default=1)
    return CurveRecord(name=name, p=p, factors=factored, d1=(p - 1) // d2,
                       d2=d2, q=q, params=params)


def record_from_params(params):
    """The record of a curve, for point-form work."""
    return _record(params.name, params.order, params.q, params)


def record_from_order(p):
    """The record of a bare prime order p, for scalar-form work."""
    AdditiveOracleGroup(p)  # refuses a composite p before p-1 is factored
    return _record("order %d" % p, p)
