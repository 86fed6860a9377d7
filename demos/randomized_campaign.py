#!/usr/bin/env python3
"""Randomized multipliers turn a lucky search into a priced campaign.

One constrained search only succeeds if the key happens to lie in the
chosen subgroup.  Multiplying Q by a uniform unit y re-randomizes the
key to z = y*x, which lands in a subgroup of order d with probability
d/(p-1) -- so m independent multipliers give m independent chances, at
about 2*sqrt(d) steps each.  This script runs such campaigns at desk
scale and checks the observed hit rate against the exact formula.
"""

from subgroupdlp import (AdditiveOracleGroup, CampaignConfig, DlpInstance,
                         draw_multipliers, empirical_success_rate, factor,
                         randomized_solve, subgroup_generator, success_exact,
                         success_lower_bound, theorem_budget)

p = 65537
d = 4096          # d/(p-1) = 1/16: each thread has a 1-in-16 chance
m = 8
group = AdditiveOracleGroup(p)
H = subgroup_generator(p, d, factored=factor(p - 1))
print("p = %d, subgroup order d = %d, %d threads per campaign" % (p, d, m))
print("per-thread budget %d steps; exact success probability %.5f"
      % (theorem_budget(d), success_exact(d, m, p)))
print()

# One campaign in detail.  The secret is 12345; the solver never sees it.
secret = 12345
instance = DlpInstance.from_secret(group, secret)
result = randomized_solve(instance, H, CampaignConfig(m=m, seed=1))
print("campaign with seed 1, multipliers %s" % draw_multipliers(p, m, 1))
if result.found:
    win = result.success
    print("  thread %d won: z = y*x = %d*%d = %d lies in H"
          % (win.index, win.y.value, secret, win.z.value))
    print("  recovered x = z*y^-1 = %d  (correct: %s)"
          % (win.x.value, win.x.value == secret))
else:
    print("  no multiplier moved the key into H this time")
print("  work: %d search steps across %d threads"
      % (result.total_steps, result.threads_run))
print()

# Many campaigns: the empirical rate should track the exact value, and
# the closed-form lower bound should undercut both.
trials = 300
rate = empirical_success_rate(p, d, m, trials, seed=2)
print("%d campaigns with fresh keys and multipliers:" % trials)
print("  observed     %.5f" % rate)
print("  exact        %.5f   1-(1-d/(p-1))^m" % success_exact(d, m, p))
print("  lower bound  %.5f   1-exp(-dm/(p-1))" % success_lower_bound(d, m, p))
