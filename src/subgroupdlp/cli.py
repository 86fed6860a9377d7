"""Command-line front end.

Subcommands: solve (single or multi-thread search), prob-table (success
grids), audit (catalog consistency), keycheck (subgroup membership audit),
factor, bench.  Exit status is 0 for a positive result (found / all checks
pass), 1 for a clean negative (not in subgroup / failed campaign /
incomplete factorization), 2 for any usage or runtime error.

All numeric arguments accept decimal or 0x-prefixed hex.  `--seed` pins
every random choice, so sequential runs are exactly reproducible.
`--curve` and audit's target each take a built-in name, `desk` or a
curve file, also looked up under $SUBGROUPDLP_DATA_DIR.
"""

import argparse
import math
import os
import random
import statistics
import sys
import time

from .bsgs import DlpInstance, Found, NotInSubgroup, solve_in_subgroup, theorem_budget
from .catalog import (DEFAULT_AUDIT_BUDGET, P256_TABLE_DIVISORS, audit_key,
                      builtin_names, load_builtin, record_from_params,
                      verify_record)
from .factoring import (DEFAULT_RHO_BUDGET, factor, nearest_divisor,
                        search_prime_with_divisor, subgroup_generator)
from .field import derive_seed, parse_int
from .groups import (AdditiveOracleGroup, CountingGroup, CurveGroup,
                     CurveParams, desk_curve, load_curve_file)
from .parallel import CampaignConfig, baby_keys, randomized_solve
from .probability import build_table, estimate, int_log2

DATA_DIR_ENV = "SUBGROUPDLP_DATA_DIR"

# the preset grids: (divisor indices into P256_TABLE_DIVISORS, m exponents)
_P256_PRESET = (
    ((0, 1, 2), (45, 50, 52, 53, 54, 55, 56)),
    ((3,), (41, 42, 43, 44)),
    ((4,), (33, 34, 35, 36, 37)),
)


class CommandError(Exception):
    """Maps to exit status 2 with the message on stderr."""


def _resolve_path(path):
    if os.path.exists(path):
        return path
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidate = os.path.join(data_dir, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _find_curve(name_or_path):
    """A built-in record, or the CurveParams of 'desk' or of a curve file.

    The one curve resolver behind solve, keycheck and audit.
    """
    if name_or_path.upper() in builtin_names():
        return load_builtin(name_or_path)
    if name_or_path.lower() == "desk":
        return desk_curve()
    path = _resolve_path(name_or_path)
    if not os.path.exists(path):
        raise CommandError(
            "%r is neither a built-in curve (%s, desk) nor a readable file"
            % (name_or_path, ", ".join(builtin_names())))
    return load_curve_file(path)


def _parse_exponent_spec(spec):
    """'45,50,52:56' -> [45, 50, 52, 53, 54, 55, 56]; '' -> [].

    A range lo:hi or lo:hi:step needs lo <= hi and step >= 1.
    """
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            pieces = [int(x) for x in part.split(":")]
            if len(pieces) == 2:
                pieces.append(1)
            if len(pieces) != 3 or pieces[2] < 1 or pieces[0] > pieces[1]:
                raise CommandError("bad exponent range %r" % part)
            lo, hi, step = pieces
            out.extend(range(lo, hi + 1, step))
        else:
            out.append(int(part))
    return out


def _load_group(args):
    if bool(args.oracle_p) == bool(args.curve):
        raise CommandError("pick exactly one of --oracle-p, --curve")
    if args.oracle_p:
        return AdditiveOracleGroup(parse_int(args.oracle_p))
    curve = _find_curve(args.curve)
    if not isinstance(curve, CurveParams):
        raise CommandError(
            "built-in %s carries no point parameters; pass --curve desk or "
            "a curve file for group arithmetic" % curve.name)
    return CurveGroup(curve)


def _parse_element(group, text):
    if isinstance(group, CurveGroup):
        parts = text.split(",")
        if len(parts) != 2:
            raise CommandError("curve points are written as x,y")
        return group.element((parse_int(parts[0]), parse_int(parts[1])))
    return group.element(parse_int(text))


def _build_subgroup(args, p):
    factored = factor(p - 1)
    if not factored.complete:
        raise CommandError("cannot factor p-1 at this scale; p too large "
                           "for a desk-scale solve")
    if (args.d is None) == (args.target_bits is None):
        raise CommandError("pick exactly one of --d, --target-bits")
    if args.d is not None:
        d = parse_int(args.d)
    else:
        d = nearest_divisor(factored, float(args.target_bits))
    return subgroup_generator(p, d, factored=factored)


def _csv_row(header, values):
    print(",".join(header))
    print(",".join("" if v is None else str(v) for v in values))


def cmd_solve(args):
    base_group = _load_group(args)
    group = CountingGroup(base_group) if args.count_ops else base_group
    p = group.order
    H = _build_subgroup(args, p)
    if (args.x is None) == (args.q is None):
        raise CommandError("supply exactly one of --x (embed a known "
                           "exponent) or --q (target element)")
    if args.x is not None:
        instance = DlpInstance.from_secret(group, parse_int(args.x))
    else:
        instance = DlpInstance(group=group, P=group.generator,
                               Q=_parse_element(base_group, args.q))
    cap = parse_int(args.budget) if args.budget else None

    started = time.perf_counter()
    if args.m is None:
        m = 1
        verdict = solve_in_subgroup(instance, H, step_cap=cap)
        elapsed = time.perf_counter() - started
        found = isinstance(verdict, Found)
        outcome, steps = type(verdict).__name__, verdict.steps
        witness = ([verdict.x.value, verdict.a, verdict.b, None] if found
                   else [None] * 4)
        report = [
            "outcome: Found x = %d  (a = %d, b = %d)"
            % (verdict.x.value, verdict.a, verdict.b) if found
            else "outcome: %s" % outcome,
            "steps: %d scalar multiplications (budget %d)"
            % (steps, theorem_budget(H.d))]
        model = "single-draw success model: lower %.6g, exact %.6g"
    else:
        m = parse_int(args.m)
        config = CampaignConfig(m=m, seed=args.seed, step_cap=cap)
        result = randomized_solve(instance, H, config)
        elapsed = time.perf_counter() - started
        found, win = result.found, result.success
        outcome = "Found" if found else "Failed"
        steps = result.total_steps
        witness = ([win.x.value, None, None, win.index] if found
                   else [None] * 4)
        report = [
            "campaign: m = %d, seed = %d" % (m, args.seed),
            "outcome: Found x = %d on thread %d (y = %d, z = %d)"
            % (win.x.value, win.index, win.y.value, win.z.value) if found
            else "outcome: Failed (no thread landed in the subgroup)",
            "steps: %d total over %d threads (%d baby keys per thread, "
            "%d-key giant table)"
            % (steps, result.threads_run, baby_keys(p, H.d, m),
               steps - sum(result.per_thread_steps))]
        model = "predicted success: lower %.5f, exact %.5f"
    est = estimate(p, H.d, m)
    if args.format == "csv":
        _csv_row(
            ["outcome", "x", "a", "b", "index", "steps", "d", "m", "p",
             "lower_bound", "exact"],
            [outcome] + witness + [steps, H.d, m, p,
                                   repr(est.lower_bound), repr(est.exact)])
    else:
        print("group: %s (order %d)" % (group.kind, p))
        print("subgroup: d = %d (log2 %.2f), zeta = %d"
              % (H.d, int_log2(H.d), H.zeta.value))
        print("\n".join(report))
        print(model % (est.lower_bound, est.exact))
        if args.count_ops:
            print("measured ops: %d scalar_mul, %d add"
                  % (group.scalar_muls, group.adds))
        print("elapsed: %.3f s" % elapsed)
    return 0 if found else 1


def cmd_prob_table(args):
    if args.paper_256:
        record = load_builtin("P-256")
        tables = [([P256_TABLE_DIVISORS[i] for i in idx], exps)
                  for idx, exps in _P256_PRESET]
        p = record.p
    else:
        if (args.curve is None) == (args.p is None):
            raise CommandError("pick exactly one of --curve, --p")
        p = load_builtin(args.curve).p if args.curve else parse_int(args.p)
        if (args.d_list is None) == (args.target_bits_list is None):
            raise CommandError(
                "pick exactly one of --d-list, --target-bits-list")
        if args.d_list is not None:
            divisors = [parse_int(tok) for tok in args.d_list.split(",")]
        else:
            if args.curve:
                factored = load_builtin(args.curve).factors
            else:
                factored = factor(p - 1)
                if not factored.complete:
                    raise CommandError("cannot factor p-1 within budget; "
                                       "pass --d-list instead")
            divisors = [nearest_divisor(factored, float(tok))
                        for tok in args.target_bits_list.split(",")]
        if args.m_exponents is None:
            raise CommandError("--m-exponents is required without --paper-256")
        tables = [(divisors, _parse_exponent_spec(args.m_exponents))]

    first = True
    for divisors, exponents in tables:
        table = build_table(p, divisors, exponents)
        if args.format == "csv":
            text = table.render_csv()
            if not first:  # keep one header for the concatenated grids
                text = text.split("\n", 1)[1]
            sys.stdout.write(text)
        else:
            if not first:
                print()
            print(table.render_text())
        first = False
    return 0


def _record_for(name_or_path):
    curve = _find_curve(name_or_path)
    if not isinstance(curve, CurveParams):
        return curve
    factored = factor(curve.order - 1)
    if not factored.complete:
        raise CommandError("cannot completely factor order-1 within budget; "
                           "record would be unauditable")
    return record_from_params(curve, factored)


def cmd_audit(args):
    record = _record_for(args.target)
    report = verify_record(record)
    if args.format == "csv":
        sys.stdout.write(report.render_csv())
    else:
        print(report.render_text())
    return 0 if report.passed else 1


def cmd_keycheck(args):
    if not args.curve:
        raise CommandError("--curve is required")
    record = _record_for(args.curve)
    if (args.x is None) == (args.q is None):
        raise CommandError("supply exactly one of --x, --q")
    subgroups = None
    if args.d:
        subgroups = [parse_int(tok) for tok in args.d.split(",")]
    budget = parse_int(args.budget) if args.budget else DEFAULT_AUDIT_BUDGET
    if args.x is not None:
        report = audit_key(record, x=parse_int(args.x), subgroups=subgroups,
                           budget=budget)
    else:
        if record.params is None:
            raise CommandError("point-form keycheck needs point parameters: "
                               "--curve desk or a curve file")
        point = _parse_element(record.group, args.q)
        report = audit_key(record, point=point, subgroups=subgroups,
                           budget=budget)
    if args.format == "csv":
        sys.stdout.write(report.render_csv())
    else:
        print(report.render_text())
    return 0 if report.recommendation == "discard" else 1


def cmd_factor(args):
    n = parse_int(args.n)
    budget = parse_int(args.budget) if args.budget else DEFAULT_RHO_BUDGET
    result = factor(n, rho_budget=budget)
    print(result.format())
    if not result.complete:
        print("incomplete: composite residual %d remains" % result.residual,
              file=sys.stderr)
        return 1
    return 0


def cmd_bench(args):
    exponents = _parse_exponent_spec(args.sizes)
    if not exponents:
        raise CommandError("empty --sizes")
    rng = random.Random(derive_seed(args.seed, "bench"))
    top = max(exponents)
    p = search_prime_with_divisor(1 << top, top + 26, rng)
    factored = factor(p - 1)
    group = AdditiveOracleGroup(p)
    rows = []
    for k in exponents:
        d = 1 << k
        H = subgroup_generator(p, d, factored=factored)
        while True:
            x = rng.randrange(1, p)
            instance = DlpInstance.from_secret(group, x)
            started = time.perf_counter()
            verdict = solve_in_subgroup(instance, H)
            elapsed = time.perf_counter() - started
            if isinstance(verdict, NotInSubgroup):
                break
            # astronomically unlikely draw inside H; re-draw for a full sweep
        rate = verdict.steps / elapsed if elapsed > 0 else float("inf")
        rows.append((k, verdict.steps, elapsed, rate))
    slope = None
    if len(rows) >= 2:
        fit = statistics.linear_regression([r[0] for r in rows],
                                           [math.log2(r[1]) for r in rows])
        slope = fit.slope
    if args.format == "csv":
        print("log2_d,steps,seconds,scalar_muls_per_sec")
        for k, steps, secs, rate in rows:
            print("%d,%d,%r,%r" % (k, steps, secs, rate))
    else:
        print("bench prime p = %d (log2 %.1f)" % (p, int_log2(p)))
        for k, steps, secs, rate in rows:
            print("d = 2^%-3d steps = %-9d %8.3f s  %.0f scalar muls/s"
                  % (k, steps, secs, rate))
        if slope is not None:
            print("fitted exponent of steps vs d: %.4f (sqrt scaling = 0.5)"
                  % slope)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subgroupdlp",
        description="Constrained discrete-log search and subgroup key audits")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="PRNG seed (sequential runs are reproducible)")

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("solve", help="run the constrained search")
    p.add_argument("--oracle-p", help="use the transparent group mod this prime")
    p.add_argument("--curve", help="'desk', a curve file or a built-in name "
                                   "(built-ins carry no point data)")
    p.add_argument("--x", help="embed this exponent and solve for it")
    p.add_argument("--q", help="target element (int, or x,y for curves)")
    p.add_argument("--d", help="subgroup order (divides p-1)")
    p.add_argument("--target-bits", help="pick d | p-1 nearest this log2")
    p.add_argument("--m", help="thread count: run a randomized campaign")
    p.add_argument("--budget", help="per-search step cap")
    p.add_argument("--count-ops", action="store_true",
                   help="report measured group operations")
    add_seed(p)
    add_format(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("prob-table", help="success-probability grids")
    p.add_argument("--curve", help="use this built-in curve's group order")
    p.add_argument("--p", help="explicit group order")
    p.add_argument("--d-list", help="comma-separated divisors")
    p.add_argument("--target-bits-list",
                   help="comma-separated log2 sizes; nearest divisors used")
    p.add_argument("--m-exponents",
                   help="log2 thread counts, e.g. '45,50,52:56'")
    p.add_argument("--paper-256", action="store_true",
                   help="the built-in P-256 preset grids")
    add_format(p)
    p.set_defaults(func=cmd_prob_table)

    p = sub.add_parser("audit", help="verify a curve record's consistency")
    p.add_argument("target", help="built-in name or curve file")
    add_format(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("keycheck",
                       help="test a key against small subgroups")
    p.add_argument("--curve", help="built-in record (scalar form only), "
                                   "'desk' or a curve file (point form too)")
    p.add_argument("--x", help="secret scalar to audit")
    p.add_argument("--q", help="public point x,y to audit")
    p.add_argument("--d", help="comma-separated subgroup orders "
                               "(default: the record's audit pair)")
    p.add_argument("--budget", help="step budget (default 2^32)")
    add_format(p)
    p.set_defaults(func=cmd_keycheck)

    p = sub.add_parser("factor", help="factor n (trial division + rho)")
    p.add_argument("n")
    p.add_argument("--budget", help="rho iteration budget")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("bench", help="measure step scaling vs subgroup size")
    p.add_argument("--sizes", default="16:24:2",
                   help="log2 d values, e.g. '16:24:2'")
    add_seed(p)
    add_format(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CommandError, ValueError, OSError, RuntimeError,
            ArithmeticError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
