"""Command-line front end.

Subcommands: solve (single or multi-thread search), prob-table (success
grids), audit (catalog consistency), keycheck (subgroup membership audit),
factor.  Exit status is 0 for a positive result (found / all checks
pass), 1 for a clean negative (not in subgroup / failed campaign /
incomplete factorization), 2 for any usage or runtime error.

Every value option is typed in the parser (integers decimal or 0x hex,
sizes in bits, lists comma-separated), and so are the rules between
options: those that exclude each other form argparse groups, which
`--help` shows as `(--x X | --q Q)`.  Every usage error -- a bad value, an
unknown or missing argument or subcommand, two options of one group --
prints one `error: <message>` line and exits 2; a bad value's names the
option and the forms it accepts.  `--seed` pins every random choice, so
sequential runs are exactly reproducible.
solve's, prob-table's and keycheck's `--curve` and audit's target each
take a built-in name, `desk` or a curve file, also looked up under
$SUBGROUPDLP_DATA_DIR.
"""

import argparse
import functools
import math
import os
import sys
import time

from .bsgs import DlpInstance, Found, solve_in_subgroup, theorem_budget
from .catalog import (DEFAULT_AUDIT_BUDGET, P256_TABLE_GRIDS, audit_key,
                      builtin_names, load_builtin, record_from_order,
                      record_from_params, verify_record)
from .factoring import (DEFAULT_RHO_BUDGET, check_divisor, factor,
                        nearest_divisor)
from .field import parse_int
from .groups import CountingGroup, desk_curve, load_curve_file
from .parallel import CampaignConfig, randomized_solve
from .probability import build_table, estimate, int_log2

DATA_DIR_ENV = "SUBGROUPDLP_DATA_DIR"


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ValueError, so `main`
    reports them as it reports every other error."""

    def error(self, message):
        raise ValueError(message)


def _integer(text):
    """A decimal or 0x-hex integer: the type of every integer argument.

    A bad value raises argparse.ArgumentTypeError naming the accepted
    forms; argparse prefixes the option.
    """
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "%r is not an integer (decimal or 0x hex)" % text) from None


def _bits(text):
    """A finite log2 size, the type of --target-bits(-list)."""
    try:
        bits = float(text)
    except ValueError:
        bits = math.inf
    if not math.isfinite(bits):
        raise argparse.ArgumentTypeError(
            "%r is not a number of bits (decimal, e.g. 128 or 127.5)" % text)
    return bits


def _listed(kind):
    """The type of a comma-separated list of `kind` values."""
    return lambda text: [kind(part) for part in text.split(",")]


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
    """The CurveRecord of a built-in name, of 'desk' or of a curve file.

    The one curve resolver behind solve, prob-table, keycheck and audit;
    for desk and a file, the record factors p-1.
    """
    if name_or_path.upper() in builtin_names():
        return load_builtin(name_or_path)
    if name_or_path.lower() == "desk":
        params = desk_curve()
    else:
        path = _resolve_path(name_or_path)
        if not os.path.exists(path):
            raise ValueError(
                "%r is neither a built-in curve (%s, desk) nor a readable "
                "file" % (name_or_path, ", ".join(builtin_names())))
        params = load_curve_file(path)
    return record_from_params(params)


def _parse_exponent_spec(spec):
    """'45,50,52:56' -> [45, 50, 52, 53, 54, 55, 56]; '' -> [].

    Each number is decimal or 0x-prefixed hex.  A range lo:hi or lo:hi:step
    needs lo <= hi and step >= 1.
    """
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = [_integer(x) for x in part.split(":")]
        if len(pieces) == 1:
            out.append(pieces[0])
            continue
        if len(pieces) == 2:
            pieces.append(1)
        if len(pieces) != 3 or pieces[2] < 1 or pieces[0] > pieces[1]:
            raise argparse.ArgumentTypeError("bad exponent range %r" % part)
        lo, hi, step = pieces
        out.extend(range(lo, hi + 1, step))
    return out


def _parse_element(group, coords):
    """--q: a point x,y on a curve, one integer in any other group."""
    curve = group.kind == "curve"
    if len(coords) != 1 + curve:
        raise ValueError("argument --q: %r is not %s, as %s group elements "
                         "are written" % (",".join(map(str, coords)),
                                          "a point x,y" if curve
                                          else "one integer", group.kind))
    return group.element(tuple(coords) if curve else coords[0])


def _print_csv(header, rows):
    """The one CSV writer: a header, then rows (None prints as empty)."""
    import csv  # only --format csv pays for it

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def cmd_solve(args):
    if args.oracle_p is not None:
        record = record_from_order(args.oracle_p)
        base_group = record.oracle_group
    else:
        record = _find_curve(args.curve)
        base_group = record.group
    group = CountingGroup(base_group) if args.count_ops else base_group
    p = group.order
    d = (args.d if args.d is not None
         else nearest_divisor(record.factors, args.target_bits))
    H = record.subgroup(d)
    if args.x is not None:
        instance = DlpInstance.from_secret(group, args.x)
    else:
        instance = DlpInstance(group=group, P=group.generator,
                               Q=_parse_element(base_group, args.q))

    started = time.perf_counter()
    if args.m is None:
        m = 1
        verdict = solve_in_subgroup(instance, H, step_cap=args.budget)
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
        m = args.m
        config = CampaignConfig(m=m, seed=args.seed, step_cap=args.budget)
        result = randomized_solve(instance, H, config)
        elapsed = time.perf_counter() - started
        found, win = result.found, result.success
        # a thread stopped below its B baby keys proves nothing
        capped = args.budget is not None and args.budget < result.plan.baby
        outcome = "Found" if found else "Undecided" if capped else "Failed"
        steps = result.total_steps
        witness = ([win.x.value, None, None, win.index] if found
                   else [None] * 4)
        report = [
            "campaign: m = %d, seed = %d" % (m, args.seed),
            "outcome: Found x = %d on thread %d (y = %d, z = %d)"
            % (win.x.value, win.index, win.y.value, win.z.value) if found
            else "outcome: Undecided (--budget %d is below the %d baby keys "
            "a thread needs)" % (args.budget, result.plan.baby) if capped
            else "outcome: Failed (no thread landed in the subgroup)",
            "steps: %d total over %d threads (%d baby keys per thread, "
            "%d-key giant table)"
            % (steps, result.threads_run, result.plan.baby,
               result.plan.giant)]
        model = "predicted success: lower %.5f, exact %.5f"
    est = estimate(p, H.d, m)
    if args.format == "csv":
        _print_csv(
            ["outcome", "x", "a", "b", "index", "steps", "d", "m", "p",
             "lower_bound", "exact"],
            [[outcome] + witness + [steps, H.d, m, p, est.lower_bound,
                                    est.exact]])
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
        for option in ("d_list", "target_bits_list", "m_exponents"):
            if getattr(args, option) is not None:
                raise ValueError("argument --%s: not allowed with argument "
                                 "--paper-256" % option.replace("_", "-"))
        p, tables = load_builtin("P-256").p, P256_TABLE_GRIDS
    else:
        # --target-bits-list reads a record's factors; --d-list factors none
        record = (_find_curve(args.curve) if args.curve is not None
                  else record_from_order(args.p)
                  if args.target_bits_list is not None else None)
        p = args.p if record is None else record.p
        if args.d_list is not None:
            divisors = args.d_list
            for d in divisors:
                check_divisor(p, d)
        elif args.target_bits_list is not None:
            divisors = [nearest_divisor(record.factors, bits)
                        for bits in args.target_bits_list]
        else:
            raise ValueError("one of the arguments --d-list "
                             "--target-bits-list is required without "
                             "--paper-256")
        if args.m_exponents is None:
            raise ValueError("--m-exponents is required without --paper-256")
        tables = [(divisors, args.m_exponents)]

    grids = [build_table(p, divisors, exponents)
             for divisors, exponents in tables]
    if args.format == "csv":
        pairs = [grid.table() for grid in grids]
        _print_csv(pairs[0][0], [row for _, rows in pairs for row in rows])
    else:
        print("\n\n".join(grid.render_text() for grid in grids))
    return 0


def cmd_audit(args):
    record = _find_curve(args.target)
    report = verify_record(record)
    if args.format == "csv":
        _print_csv(*report.table())
    else:
        print(report.render_text())
    return 0 if report.passed else 1


def cmd_keycheck(args):
    record = _find_curve(args.curve)
    point = None if args.q is None else _parse_element(record.group, args.q)
    report = audit_key(record, x=args.x, point=point, subgroups=args.d,
                       budget=args.budget)
    if args.format == "csv":
        _print_csv(*report.table())
    else:
        print(report.render_text())
    return 0 if report.recommendation == "discard" else 1


def cmd_factor(args):
    result = factor(args.n, rho_budget=args.budget)
    print(result.format())
    if not result.complete:
        print("incomplete: composite residual %d remains" % result.residual,
              file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser():
    """The one parser of this process, built on first use.

    parse_args returns a fresh Namespace per call, so main reuses it.
    """
    parser = _Parser(
        prog="subgroupdlp",
        description="Constrained discrete-log search and subgroup key audits")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("solve", help="run the constrained search")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--oracle-p", type=_integer,
                     help="use the transparent group mod this prime")
    one.add_argument("--curve", help="'desk', a curve file or a built-in "
                                     "name (built-ins carry no point data)")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--x", type=_integer,
                     help="embed this exponent and solve for it")
    one.add_argument("--q", type=_listed(_integer),
                     help="target element (int, or x,y for curves)")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--d", type=_integer, help="subgroup order (divides p-1)")
    one.add_argument("--target-bits", type=_bits,
                     help="pick d | p-1 nearest this log2")
    p.add_argument("--m", type=_integer,
                   help="thread count: run a randomized campaign")
    p.add_argument("--budget", type=_integer, help="per-search step cap")
    p.add_argument("--count-ops", action="store_true",
                   help="report measured group operations")
    p.add_argument("--seed", type=_integer, default=0,
                   help="PRNG seed (sequential runs are reproducible)")
    add_format(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("prob-table", help="success-probability grids")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--paper-256", action="store_true",
                     help="the built-in P-256 preset grids")
    one.add_argument("--curve", help="use this curve's group order: a "
                                     "built-in name, 'desk' or a curve file")
    one.add_argument("--p", type=_integer, help="explicit group order")
    # one of the two, and --m-exponents, are required without --paper-256
    # and refused with it (cmd_prob_table)
    one = p.add_mutually_exclusive_group()
    one.add_argument("--d-list", type=_listed(_integer),
                     help="comma-separated divisors")
    one.add_argument("--target-bits-list", type=_listed(_bits),
                     help="comma-separated log2 sizes; nearest divisors used")
    p.add_argument("--m-exponents", type=_parse_exponent_spec,
                   help="log2 thread counts, e.g. '45,50,52:56'")
    add_format(p)
    p.set_defaults(func=cmd_prob_table)

    p = sub.add_parser("audit", help="verify a curve record's consistency")
    p.add_argument("target", help="built-in name or curve file")
    add_format(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("keycheck",
                       help="test a key against small subgroups")
    p.add_argument("--curve", required=True, help="built-in record (scalar "
                   "form only), 'desk' or a curve file (point form too)")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--x", type=_integer, help="secret scalar to audit")
    one.add_argument("--q", type=_listed(_integer),
                     help="public point x,y to audit")
    p.add_argument("--d", type=_listed(_integer),
                   help="comma-separated subgroup orders "
                        "(default: the record's audit pair)")
    p.add_argument("--budget", type=_integer, default=DEFAULT_AUDIT_BUDGET,
                   help="step budget (default 2^32)")
    add_format(p)
    p.set_defaults(func=cmd_keycheck)

    p = sub.add_parser("factor", help="factor n (trial division + rho)")
    p.add_argument("n", type=_integer)
    p.add_argument("--budget", type=_integer, default=DEFAULT_RHO_BUDGET,
                   help="rho iteration budget")
    p.set_defaults(func=cmd_factor)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
