#!/usr/bin/env python3
"""Auditing curve records and individual keys against subgroup structure.

Two layers: first, arithmetic consistency of a curve record itself (is
the order prime, do the listed factors multiply back to p-1, is the
audit pair coprime and correctly sized); second, a key audit, which
checks whether a given secret scalar -- or only its public point --
lies in one of the record's distinguished subgroups.  At NIST sizes the
membership checks are priced and declared infeasible rather than run;
at desk scale they actually run.
"""

from subgroupdlp import (audit_key, builtin_names, desk_curve, load_builtin,
                         record_from_params, verify_record)

# Layer 1: the five built-in NIST records.
for name in builtin_names():
    report = verify_record(load_builtin(name))
    verdict = "pass" if report.passed else "FAIL"
    print("%-6s %s (%d checks)" % (name, verdict, len(report.checks)))
print()

# Layer 2 at NIST scale: both distinguished subgroups of P-256 need
# ~2^101+ steps, so the audit declares itself inconclusive.
print(audit_key(load_builtin("P-256"), x=2).render_text())
print()

# Layer 2 at desk scale: a curve of order 1999 whose scalar field has
# 1999 - 1 = 2 * 3^3 * 37.  Build its record, then audit three keys.
params = desk_curve()
record = record_from_params(params)
print("desk record: audit pair d1 = %d, d2 = %d" % (record.d1, record.d2))

H37 = record.subgroup(37)
weak = pow(H37.zeta.value, 11, params.order)  # planted inside the 37-subgroup
strong = 3                                    # a primitive root mod 1999
for label, x in (("planted weak key", weak), ("generic key", strong)):
    report = audit_key(record, x=x)
    print("%s x = %d -> %s" % (label, x, report.recommendation))

# The same verdict from the public point alone, never seeing the scalar.
group = record.group
point = group.scalar_mul(weak, group.generator)
report = audit_key(record, point=point)
print("same weak key, point form only -> %s" % report.recommendation)
