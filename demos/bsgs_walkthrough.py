#!/usr/bin/env python3
"""Constrained baby-step giant-step, end to end on tiny numbers.

The setting: a group G of prime order p = 31 (here the transparent
oracle group, so we can watch everything), a public pair (P, Q = x*P),
and the suspicion that the hidden exponent x lies in the order-5
subgroup H = {1, 2, 4, 8, 16} of (Z/31Z)*.  The search below settles
that suspicion in a handful of scalar multiplications instead of the
~sqrt(p) a general-purpose method would need.
"""

from subgroupdlp import (AdditiveOracleGroup, CountingGroup, DlpInstance,
                         Found, Residue, SubgroupSpec, solve_in_subgroup,
                         theorem_budget)

p = 31
group = CountingGroup(AdditiveOracleGroup(p))

# The subgroup of order 5, generated by zeta = 2 (2^5 = 32 = 1 mod 31);
# construction proves that zeta has order exactly d.
H = SubgroupSpec(d=5, zeta=Residue(2, p))
print("subgroup H of order %d mod %d: %s" % (H.d, p, sorted(H.elements())))
print("worst-case budget: %d scalar multiplications" % theorem_budget(H.d))
print()

# A key that IS in H: x = 8 = zeta^3.
instance = DlpInstance.from_secret(group, 8)
group.reset()
result = solve_in_subgroup(instance, H)
print("x = 8  ->", result)
assert isinstance(result, Found) and result.x.value == 8
# The witness says x = zeta^(a*n - b mod d) with n = isqrt(d)+1 = 3:
k = (result.a * 3 - result.b) % H.d
print("  collision witness: x = zeta^(%d*3 - %d mod 5) = zeta^%d = %d"
      % (result.a, result.b, k, pow(2, k, p)))
print("  cost: %d counted steps + 1 verification = %d scalar multiplications"
      % (result.steps, group.scalar_muls))
print()

# A key that is NOT in H: x = 3 generates all of (Z/31Z)*.
instance = DlpInstance.from_secret(group, 3)
group.reset()
result = solve_in_subgroup(instance, H)
print("x = 3  ->", result)
print("  both sweeps ran dry after %d steps: x is provably outside H."
      % result.steps)
print("  The bill is ~2*sqrt(d), not ~2*sqrt(p) -- modest here, but the")
print("  gap is astronomical when d ~ 2^40 sits inside p ~ 2^256.")
print()

# The same decision never needs the secret: only P and Q went in.
print("(the solver only ever touched P, Q, and H -- never x itself)")
