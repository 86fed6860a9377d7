#!/usr/bin/env python3
"""Benchmark for subgroupdlp: one workload, one client, closed loop.

    python3 bench/run.py --workload solve-oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the library is imported from ./src.  Inputs
come from --seed only.  Each item's output is checked by an independent
oracle (bench/oracles.py); a wrong verdict, an exception or an unexpected
exit code counts as failed.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 measures the same items untraced and then traced, and reports
the per-layer metrics derived from the spans (see bench/README.md).
--workload all runs every workload in its own process and prints a table.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"  # the traced run's spans, one file per workload

WORKLOAD_NAMES = ("solve-oracle", "campaign-mult", "keyaudit-p256",
                  "pricing-cli")
MIN_ITEMS = 100         # so at least ten items lie beyond p90
HARD_CAP_S = 120.0      # a run always ends well inside three minutes
SETUP_CHILDREN = 6      # set-up is also timed in this many fresh processes

END_TO_END = (("items_per_s", "1/s"), ("item_ms_p50", "ms"),
              ("item_ms_p90", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("groups.scalar_mul.calls", "count"), ("groups.scalar_mul.us", "us"),
    ("groups.encode.calls", "count"), ("groups.encode.us", "us"),
    ("groups.init.ms", "ms"),
    ("bsgs.solve.calls", "count"), ("bsgs.solve.self_ms", "ms"),
    ("bsgs.steps", "count"), ("bsgs.verify.attempts", "count"),
    ("bsgs.verify.useful_ratio", "ratio"), ("bsgs.giant_encodings.ms", "ms"),
    ("parallel.campaign.self_ms", "ms"), ("parallel.threads_run", "count"),
    ("parallel.useful_thread_ratio", "ratio"),
    ("parallel.cpu_per_wall", "ratio"), ("parallel.w2_over_w1", "ratio"),
    ("parallel.winner_lowest_ratio", "ratio"),
    ("field.is_probable_prime.calls", "count"),
    ("field.is_probable_prime.ms", "ms"),
    ("factoring.factor.ms", "ms"), ("factoring.find_primitive_root.ms", "ms"),
    ("probability.estimate.calls", "count"), ("probability.self_ms", "ms"),
    ("catalog.audit_key.self_ms", "ms"), ("catalog.verify_record.ms", "ms"),
    ("cli.main.self_ms", "ms"), ("trace.overhead_ratio", "ratio"),
)


class Unrunnable(Exception):
    """The checkout cannot run the benchmark (no library source)."""


def import_library():
    """Import every library module; returns the seconds it took."""
    if not (SRC / "subgroupdlp" / "__init__.py").is_file():
        raise Unrunnable("library source %s not found; run from a full "
                         "checkout of the repository" % (SRC / "subgroupdlp"))
    sys.path[:0] = [str(SRC), str(BENCH)]
    started = time.perf_counter()
    import subgroupdlp.cli  # noqa: F401  (pulls in every module)
    return time.perf_counter() - started


def child_setup(name, seed):
    """Import plus set-up, timed in a fresh interpreter (scaled and raw)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, probe, seconds=None, items=None, min_items=MIN_ITEMS,
            stop=None, **run_args):
    """Closed loop over items 0, 1, ...; one record per item.

    Runs `items` items if given, otherwise for `seconds` and at least
    `min_items`, and then to the end of the workload's block, so every
    stratum has as many items as the others (HARD_CAP_S aside); `stop(i)`,
    asked before item i, may end the loop early.
    Only run_item is timed; `scaled` is its time at the nominal speed.
    """
    records = []
    started = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - started
        if items is not None:
            if i >= items:
                break
        elif ((elapsed >= seconds and i >= min_items
               and i % workload.block == 0) or elapsed >= HARD_CAP_S):
            break
        if stop is not None and stop(i):
            break
        item = workload.make_item(i)
        scale = probe.scale()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            out = workload.run_item(item, **run_args)
            error = None
        except Exception as e:  # counted as a failed item, run continues
            out, error = None, "%s: %s" % (type(e).__name__, e)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        try:
            ok = error is None and bool(workload.check(item, out))
        except Exception as e:  # malformed output
            ok, error = False, "check: %s: %s" % (type(e).__name__, e)
        records.append({"i": i, "wall": wall, "scaled": wall * scale,
                        "cpu": cpu, "ok": ok,
                        "error": error,
                        "facts": workload.record(item, out) if ok else None})
        i += 1
    return records


def end_to_end(records, setup_samples, key="scaled"):
    walls = [r[key] for r in records]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "items_per_s": len(walls) / sum(walls),
        "item_ms_p50": statistics.median(walls) * 1e3,
        "item_ms_p90": statistics.quantiles(walls, n=10)[-1] * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(untraced, traced, tracer, extra):
    """Per-layer metrics from the traced items' spans and both phases.

    A metric whose layer the workload never reached (no span, counter or
    campaign to measure) is None; see `reached`.
    """
    import tracing
    items, everything = tracing.layer_totals(tracer)
    n = len(traced)

    # a row is (calls, inclusive s, self s); col picks one
    def per_item(name, col, factor=1.0):
        row = items.get(name)
        return row[col] / n * factor if row else None

    def per_call(name, col, factor, table=items):
        row = table.get(name)
        return row[col] / row[0] * factor if row else None

    attempts = tracing.verify_attempts(tracer)
    found = tracer.counters["bsgs.found"]
    common = min(len(untraced), n)
    untraced_s = sum(r["scaled"] for r in untraced[:common])
    traced_s = sum(r["scaled"] for r in traced[:common])
    probability = [row[2] for name, row in items.items()
                   if name.startswith("probability.")]
    m = {
        "groups.scalar_mul.calls": per_item("groups.scalar_mul", 0),
        "groups.scalar_mul.us": per_call("groups.scalar_mul", 2, 1e6),
        "groups.encode.calls": per_item("groups.encode", 0),
        "groups.encode.us": per_call("groups.encode", 2, 1e6),
        "groups.init.ms": per_call("groups.init", 1, 1e3, everything),
        "bsgs.solve.calls": per_item("bsgs.solve", 0),
        "bsgs.solve.self_ms": per_item("bsgs.solve", 2, 1e3),
        "bsgs.steps": (tracer.counters["bsgs.steps"] / n
                       if "bsgs.solve" in items else None),
        "bsgs.verify.attempts":
            attempts / n if "bsgs.solve" in items else None,
        "bsgs.verify.useful_ratio": found / attempts if attempts else None,
        "bsgs.giant_encodings.ms": per_call("bsgs.giant_encodings", 1, 1e3),
        "parallel.campaign.self_ms": per_item("parallel.campaign", 2, 1e3),
        "field.is_probable_prime.calls":
            per_item("field.is_probable_prime", 0),
        "field.is_probable_prime.ms":
            per_item("field.is_probable_prime", 1, 1e3),
        "factoring.factor.ms":
            per_call("factoring.factor", 1, 1e3, everything),
        "factoring.find_primitive_root.ms":
            per_call("factoring.find_primitive_root", 1, 1e3, everything),
        "probability.estimate.calls": per_item("probability.estimate", 0),
        "probability.self_ms":
            sum(probability) / n * 1e3 if probability else None,
        "catalog.audit_key.self_ms": per_item("catalog.audit_key", 2, 1e3),
        "catalog.verify_record.ms": per_item("catalog.verify_record", 1, 1e3),
        "cli.main.self_ms": per_item("cli.main", 2, 1e3),
        "trace.overhead_ratio": untraced_s / traced_s,
        "parallel.threads_run": None, "parallel.useful_thread_ratio": None,
        "parallel.cpu_per_wall": None, "parallel.w2_over_w1": None,
        "parallel.winner_lowest_ratio": None,
    }
    facts = [r["facts"] for r in untraced if r["facts"]]
    if facts:
        threads = sum(f["threads_run"] for f in facts)
        wins = [f for f in facts if f["found"]]
        m.update({
            "parallel.threads_run": threads / len(facts),
            "parallel.useful_thread_ratio":
                sum(f["useful_threads"] for f in facts) / threads,
            "parallel.cpu_per_wall": (sum(r["cpu"] for r in untraced)
                                      / sum(r["wall"] for r in untraced)),
            "parallel.winner_lowest_ratio":
                (sum(f["lowest_won"] for f in wins) / len(wins)
                 if wins else None),
        })
    m.update(extra)
    return m


def reached(metrics):
    """The per-layer metrics the workload measured, as (name, unit)."""
    return [(name, unit) for name, unit in PER_LAYER
            if metrics[name] is not None]


def campaign_repeats(workload, untraced, single, traced):
    """The same campaigns at workers=nproc, at workers=1 and traced.

    Returns the throughput ratio of nproc workers over one, and a record
    (not gated) of how many campaigns gave a different (threads_run,
    total_steps) pair when run again with the same seed.
    """
    def pair(r):
        facts = r["facts"] or {}
        return facts.get("threads_run"), facts.get("total_steps")

    k = len(single)
    return (sum(r["scaled"] for r in single)
            / sum(r["scaled"] for r in untraced[:k])), {
        "campaigns": k, "workers": workload.workers,
        "differ_workers_vs_1": sum(pair(a) != pair(b)
                                   for a, b in zip(untraced, single)),
        "compared_repeat": min(len(untraced), len(traced)),
        "differ_repeat_same_workers": sum(pair(a) != pair(b)
                                          for a, b in zip(untraced, traced)),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload, args):
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "commit": git_commit(), "workload": workload.name,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "input_size": workload.size(),
            "client": "closed loop, one client, one process"}


def report(metrics, units, counts, failed_items):
    for name, unit in units:
        print("%-34s %14.6g %-6s (n=%d)" % (name, metrics[name], unit,
                                            counts.get(name, 0)))
    for r in failed_items[:5]:
        print("failed item %d: %s" % (r["i"], r["error"] or "wrong output"))


def result_line(records, metrics, units):
    """The last stdout line.  It names every metric of `units`, as the
    result format requires; one the workload never reached reads 0 here."""
    failed = sum(not r["ok"] for r in records)
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": (0.0 if metrics[name] is None
                                          else metrics[name]), "unit": unit}
                        for name, unit in units}}


def run_one(args):
    setup_scale = speed.SpeedProbe().settle()
    import_s = import_library()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    probe = speed.SpeedProbe(threads=workload.threads)
    started = time.perf_counter()
    workload.setup()
    setup_raw = import_s + time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_raw * setup_scale,
                          "raw_setup_s": setup_raw}))
        return 0
    record = run_record(workload, args)

    if not args.trace:
        records = measure(workload, probe, seconds=args.seconds)
        children = [child_setup(args.workload, args.seed)
                    for _ in range(SETUP_CHILDREN)]
        setups = [setup_raw * setup_scale] + [c["setup_s"] for c in children]
        raw_setups = [setup_raw] + [c["raw_setup_s"] for c in children]
        metrics = end_to_end(records, setups)
        n = len(records)
        counts = {"items_per_s": n, "item_ms_p50": n, "item_ms_p90": n,
                  "setup_s": len(setups), "peak_rss_mb": 1}
        record.update(
            items=n, failed_ratio=sum(not r["ok"] for r in records) / n,
            setup_samples_s=setups,
            unscaled=end_to_end(records, raw_setups, key="wall"),
            speed_scale=statistics.median(r["scaled"] / r["wall"]
                                          for r in records))
        units = END_TO_END
    else:
        import tracing
        untraced = measure(workload, probe, seconds=args.seconds / 2,
                           min_items=1)
        single = []
        if workload.name == "campaign-mult":
            single = measure(workload, probe,
                             items=min(len(untraced), 40), workers=1)
        tracer = tracing.Tracer()
        uninstall = tracing.instrument(tracer)
        try:
            workload.setup()  # rebuilt so the groups it holds are traced

            def next_item(i):
                tracer.current_item = i
                return tracer.full

            traced = measure(workload, probe, seconds=args.seconds / 2,
                             min_items=1, stop=next_item)
        finally:
            uninstall()
        workload.setup()  # drops the traced groups, which hold the spans
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / ("spans-%s.bin" % workload.name)
        tracer.save(spans_file)
        del tracer
        spans = tracing.Tracer.load(spans_file)
        extra = {}
        if workload.name == "campaign-mult":
            extra["parallel.w2_over_w1"], record["campaign_repeats"] = \
                campaign_repeats(workload, untraced, single, traced)
        metrics = per_layer(untraced, traced, spans, extra)
        units = reached(metrics)
        record.update(items_untraced=len(untraced), items_traced=len(traced),
                      spans=len(spans.start),
                      spans_file=str(spans_file.relative_to(ROOT)),
                      nesting_errors=tracing.nesting_errors(
                          spans.start, spans.end, spans.parent),
                      not_reached=[name for name, _ in PER_LAYER
                                   if metrics[name] is None])
        counts = {name: len(traced) for name, _ in units}
        records = untraced + single + traced

    print("workload %s, seed %d: %s" % (workload.name, args.seed,
                                        record["client"]))
    report(metrics, units, counts, [r for r in records if not r["ok"]])
    print("run_record " + json.dumps(record, sort_keys=True))
    line = result_line(records, metrics, PER_LAYER if args.trace else units)
    if args.trace and record["nesting_errors"]:
        line["correct"] = False
    print(json.dumps(line))
    return 0


def run_all(args):
    """Every workload in its own process (so peak RSS is its own)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            raise Unrunnable("workload %s exited with %d"
                             % (name, proc.returncode))
        result = json.loads(lines[-1])
        record = json.loads(next(line for line in lines
                                 if line.startswith("run_record "))[11:])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            if metric not in record.get("not_reached", ()):
                summary["metrics"]["%s/%s" % (name, metric)] = value
        print("failed_ratio %s = %d / %d\n" % (name, result["failed"],
                                              result["attempted"]))
    print(json.dumps(summary))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except Unrunnable as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
