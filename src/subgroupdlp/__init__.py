"""Discrete-log search constrained to subgroups of the scalar field.

For a group of prime order p, the unit group of the scalar field factors
into subgroups of order d for every d | p-1.  This package decides whether
a hidden exponent lies in such a subgroup (recovering it when it does) in
about 2*sqrt(d) group operations, amplifies the reach with randomized
parallel campaigns, prices the success probability exactly, and audits
keys on the NIST prime curves against their built-in subgroup structure.
"""

from .bsgs import (DegenerateKeyError, DlpInstance, Found, NotInSubgroup,
                   Undecided, solve_in_subgroup, theorem_budget)
from .catalog import (CurveRecord, KeyAuditReport, audit_key, builtin_names,
                      load_builtin, record_from_order, record_from_params,
                      verify_record)
from .factoring import (FactoredInteger, SubgroupSpec, divisors, factor,
                        nearest_divisor, pollard_rho_brent,
                        search_prime_with_divisor)
from .field import (MILLER_RABIN_ROUNDS, Residue, derive_seed,
                    is_probable_prime, parse_int)
from .groups import (AdditiveOracleGroup, CountingGroup, CurveGroup,
                     CurveParams, CyclicGroup, GroupElement,
                     MultiplicativeGroup, desk_curve, format_curve_params,
                     implicit_equal, load_curve_file, parse_curve_params)
from .parallel import (CampaignConfig, CampaignResult, CampaignSuccess,
                       draw_multipliers, empirical_success_rate,
                       randomized_solve)
from .probability import (AttackEstimate, ProbabilityTable, build_table,
                          estimate, int_log2, success_exact,
                          success_lower_bound, threads_for_probability)

__version__ = "0.1.0"
