"""The four workloads: seeded inputs, program set-up, one item, its oracle.

A workload object is built from the seed alone (benchmark-side input
generation, no library calls).  `setup()` does the program's one-time work
and is what `setup_s` times.  `make_item(i)` derives item i's inputs from
(seed, i) only, `run_item` is the timed call into the library, and
`check` is the item's independent oracle.  Library functions are always
called through their module (`bsgs.solve_in_subgroup`, ...), so the traced
run's wrappers see them.

Outcome mixes are stratified: each block of items holds every stratum
(member / non-member, subgroup, first-hit position) exactly once in a
seeded order, so a run's percentiles do not hinge on how many slow or fast
outcomes the seed happened to draw.
"""

import contextlib
import dataclasses
import io
import os
import random
from pathlib import Path

from subgroupdlp import bsgs, catalog, cli, factoring, groups, parallel

import oracles

CURVE_FILE = Path(__file__).resolve().parent / "data" / "p256.curve"


class Workload:
    name = ""
    why = ""
    threads = 1  # threads an item keeps busy
    block = 1  # items per block of strata; a timed run ends on a whole block

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random("%s/%d" % (self.name, seed))

    def item_rng(self, i):
        return random.Random("%s/%d/item/%d" % (self.name, self.seed, i))

    def stratum(self, i):
        """Item i's stratum: each block of items visits every one once."""
        order = list(range(self.block))
        random.Random("%s/%d/block/%d" % (self.name, self.seed,
                                          i // self.block)).shuffle(order)
        return order[i % self.block]

    def size(self):
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def make_item(self, i):
        raise NotImplementedError

    def run_item(self, item):
        raise NotImplementedError

    def check(self, item, out):
        raise NotImplementedError

    def record(self, item, out):
        """Per-item facts the per-layer report needs beyond spans."""
        return None


class SolveOracle(Workload):
    name = "solve-oracle"
    why = ("one constrained search per item on the near-free oracle group: "
           "bsgs sweeps and group element plumbing, no real arithmetic")
    d = 1 << 22
    block = 2  # a non-member, then a planted member

    def __init__(self, seed):
        super().__init__(seed)
        # ~40-bit prime p with 2^22 | p-1
        self.p = oracles.random_prime(self.rng, 1 << 17, 1 << 18,
                                      step=self.d, offset=1)

    def size(self):
        return {"p": self.p, "p_bits": self.p.bit_length(), "d": self.d,
                "keys": "alternating non-member, planted member"}

    def setup(self):
        self.group = groups.AdditiveOracleGroup(self.p)
        factored = factoring.factor(self.p - 1)
        self.H = factoring.subgroup_generator(self.p, self.d,
                                              factored=factored)

    def make_item(self, i):
        rng = self.item_rng(i)
        if i % 2:
            return oracles.planted_member(rng, self.d, self.p)
        return oracles.non_member(rng, self.d, self.p)

    def run_item(self, x):
        instance = bsgs.DlpInstance.from_secret(self.group, x)
        return bsgs.solve_in_subgroup(instance, self.H)

    def check(self, x, verdict):
        if oracles.in_subgroup(x, self.d, self.p):
            return (isinstance(verdict, bsgs.Found)
                    and verdict.x.value == x)
        return (isinstance(verdict, bsgs.NotInSubgroup)
                and verdict.steps == oracles.theorem_budget(self.d))


@dataclasses.dataclass(frozen=True)
class CampaignItem:
    x: int
    seed: int
    first_hit: int  # lowest thread index whose y_i * x lies in H; m if none


class CampaignMult(Workload):
    name = "campaign-mult"
    why = ("re-randomized campaigns on the multiplicative backend: parallel "
           "threads, the shared giant table, most campaigns stop part-way")
    p = 39 * (1 << 18) + 1  # prime; (p-1)/d = 39
    d = 1 << 18
    m = 64
    block = 21  # strata; odd, so the median item falls inside the middle one

    def __init__(self, seed):
        super().__init__(seed)
        self.workers = self.threads = len(os.sched_getaffinity(0))
        # ~128-bit prime r = 2kp + 1 and a generator of its order-p subgroup
        self.r = oracles.random_prime(self.rng, 1 << 103, 1 << 104,
                                      step=2 * self.p, offset=1)
        self.g = 1
        while self.g == 1:
            self.g = pow(self.rng.randrange(2, self.r - 1),
                         (self.r - 1) // self.p, self.r)
        # the first-hit index at the middle quantile of each stratum
        miss = 1 - self.d / (self.p - 1)
        self.first_hits = []
        for k in range(self.block):
            u = (k + 0.5) / self.block
            j = 0
            while j < self.m and 1 - miss ** (j + 1) < u:
                j += 1
            self.first_hits.append(j)

    def size(self):
        return {"p": self.p, "d": self.d, "m": self.m,
                "r_bits": self.r.bit_length(), "workers": self.workers,
                "first_hit_strata": self.first_hits}

    def setup(self):
        self.group = groups.MultiplicativeGroup(self.r, self.g, self.p)
        factored = factoring.factor(self.p - 1)
        self.H = factoring.subgroup_generator(self.p, self.d,
                                              factored=factored)

    def first_hit(self, x, seed):
        ys = parallel.draw_multipliers(self.p, self.m, seed)
        return next((i for i, y in enumerate(ys)
                     if oracles.in_subgroup(y * x % self.p, self.d, self.p)),
                    self.m)

    def make_item(self, i):
        rng = self.item_rng(i)
        want = self.first_hits[self.stratum(i)]
        while True:
            # whether an earlier thread also hits depends on the y_i alone,
            # so every attempt draws a fresh campaign seed
            seed = rng.getrandbits(63)
            if want < self.m:  # plant x so that y_want * x lands in H
                y = parallel.draw_multipliers(self.p, self.m, seed)[want]
                h = oracles.planted_member(rng, self.d, self.p)
                x = h * pow(y, -1, self.p) % self.p
            else:
                x = rng.randrange(1, self.p)
            if self.first_hit(x, seed) == want:
                return CampaignItem(x=x, seed=seed, first_hit=want)

    def run_item(self, item, workers=None):
        instance = bsgs.DlpInstance.from_secret(self.group, item.x)
        config = parallel.CampaignConfig(m=self.m, seed=item.seed,
                                         workers=workers or self.workers)
        return parallel.randomized_solve(instance, self.H, config)

    def check(self, item, result):
        if self.first_hit(item.x, item.seed) == self.m:
            return not result.found
        return result.found and result.success.x.value == item.x

    def record(self, item, result):
        return {"threads_run": result.threads_run,
                "total_steps": result.total_steps,
                "found": result.found,
                "useful_threads": (result.success.index + 1 if result.found
                                   else self.m),
                "lowest_won": (result.found
                               and result.success.index == item.first_hit)}


class KeyauditP256(Workload):
    name = "keyaudit-p256"
    why = ("point-form key audits on the real P-256 curve: affine 256-bit "
           "curve arithmetic, group rebuilt and re-validated per call")
    subgroups = (3, 16, 48, 71)

    def __init__(self, seed):
        super().__init__(seed)
        self.curve = oracles.read_curve_file(CURVE_FILE)
        self.n = self.curve["order"]
        self.cases = [(d, member) for d in self.subgroups
                      for member in (True, False)]
        self.block = len(self.cases)

    def size(self):
        return {"curve": "P-256", "subgroups": list(self.subgroups),
                "keys": "half planted members"}

    def setup(self):
        params = groups.load_curve_file(str(CURVE_FILE))
        # construction checks that G is on the curve and that n*G = O
        self.group = groups.CurveGroup(params)
        builtin = catalog.load_builtin("P-256")
        if (builtin.p, builtin.q) != (params.order, params.q):
            raise ValueError("%s disagrees with the catalog's P-256 record"
                             % CURVE_FILE.name)
        self.audited = dataclasses.replace(builtin, params=params)

    def make_item(self, i):
        rng = self.item_rng(i)
        d, member = self.cases[self.stratum(i)]
        x = (oracles.planted_member(rng, d, self.n) if member
             else oracles.non_member(rng, d, self.n))
        point = oracles.curve_mul(x, (self.curve["gx"], self.curve["gy"]),
                                  self.curve)
        return d, x, point

    def run_item(self, item):
        d, _, point = item
        return catalog.audit_key(self.audited, point=self.group.element(point),
                                 subgroups=[d])

    def check(self, item, report):
        d, x, _ = item
        if len(report.entries) != 1:
            return False
        entry = report.entries[0]
        if oracles.in_subgroup(x, d, self.n):
            return (entry.status == "member"
                    and report.recommendation == "discard")
        return (entry.status == "non-member"
                and entry.steps == oracles.theorem_budget(d)
                and report.recommendation == "keep")


class PricingCli(Workload):
    name = "pricing-cli"
    why = ("in-process CLI calls: prob-table --paper-256, audit, scalar "
           "keycheck and factor of p-1; probability, factoring, rendering")
    # each block of five items runs these in a seeded order
    kinds = ("prob-table", "keycheck", "keycheck", "audit", "factor")
    block = len(kinds)
    # divisors of P-256's p-1 for keycheck, visited in turn
    keycheck_divisors = (71 * 131, 16 * 3407, 3 * 38189, 373 * 17449)
    # the three --paper-256 grids: divisor indices, log2 thread counts
    paper_grids = (((0, 1, 2), (45, 50, 52, 53, 54, 55, 56)),
                   ((3,), (41, 42, 43, 44)),
                   ((4,), (33, 34, 35, 36, 37)))

    builtins = ("P-192", "P-224", "P-256", "P-384", "P-521")

    def __init__(self, seed):
        super().__init__(seed)
        self.p256 = oracles.read_curve_file(CURVE_FILE)["order"]

    def size(self):
        return {"kinds_per_block": list(self.kinds),
                "keycheck_d": list(self.keycheck_divisors),
                "factor_n": "2^e * a * b + 1 prime, a, b 27-bit primes"}

    def setup(self):
        for name in self.builtins:
            catalog.load_builtin(name)
        factoring.factor(2)  # builds the lazy trial-division sieve

    def make_item(self, i):
        rng = self.item_rng(i)
        block = i // self.block
        slot = self.stratum(i)
        kind = self.kinds[slot]
        if kind == "prob-table":
            return kind, ["prob-table", "--paper-256"], None
        if kind == "audit":
            name = self.builtins[block % len(self.builtins)]
            return kind, ["audit", name], None
        if kind == "keycheck":  # slots 1 and 2: one member, one non-member
            d = self.keycheck_divisors[(2 * block + slot) % 4]
            member = (block + slot) % 2 == 0
            x = (oracles.planted_member(rng, d, self.p256) if member
                 else oracles.non_member(rng, d, self.p256))
            return kind, ["keycheck", "--curve", "P-256", "--x", str(x),
                          "--d", str(d)], (x, d)
        while True:  # n = p - 1 for a prime p, two cofactors past trial division
            n = (2 ** rng.randrange(1, 9)
                 * oracles.random_prime(rng, 1 << 26, 1 << 27)
                 * oracles.random_prime(rng, 1 << 26, 1 << 27))
            if oracles.is_prime(n + 1):
                return kind, ["factor", str(n)], n

    def run_item(self, item):
        _, argv, _ = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse rejects its input this way
                rc = e.code
        return rc, out.getvalue()

    def check(self, item, out):
        kind, _, expect = item
        rc, text = out
        if kind == "prob-table":
            divisors = catalog.P256_TABLE_DIVISORS
            blocks = [([divisors[j] for j in idx], exps)
                      for idx, exps in self.paper_grids]
            return rc == 0 and oracles.prob_table_ok(text, self.p256, blocks)
        if kind == "audit":
            return oracles.audit_ok(text, rc)
        if kind == "keycheck":
            x, d = expect
            return oracles.keycheck_ok(text, rc, x, d, self.p256)
        return rc == 0 and oracles.factor_line_ok(text, expect)


WORKLOADS = {w.name: w for w in (SolveOracle, CampaignMult, KeyauditP256,
                                 PricingCli)}
