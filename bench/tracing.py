"""Spans recorded from outside the library, and the per-layer totals.

Nothing under src/ is edited.  Spans come from two places:

* `TracedGroup`, a `CountingGroup` whose operations also record spans; it
  is what the instrumented group constructors return, so solvers drive
  every group operation through it.
* wrappers installed by `instrument()` on module-level names, mostly the
  names one library module imports from another (`parallel.
  solve_in_subgroup`, `catalog.is_probable_prime`, ...), which resolve at
  call time.  `instrument()` returns a callable that puts the originals back.

Spans live in memory as parallel arrays (name, start, end, parent, item);
when the run ends they are written out, read back and turned into metrics.  Each thread keeps its own
parent stack; a thread whose stack is empty (a campaign's pool worker)
takes the innermost open span of the thread that built the tracer as its
parent, which is the campaign waiting for that pool.
"""

import json
import threading
from array import array
from collections import Counter
from time import perf_counter

from subgroupdlp.groups import CountingGroup

NO_PARENT = -1
SETUP_ITEM = -1
MAX_SPANS = 1_000_000  # a traced run stops taking items at this many spans
NESTING_SLACK_S = 1e-9  # float rounding allowed at a span's edges


class Tracer:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.counters = Counter()
        self.current_item = SETUP_ITEM
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @property
    def full(self):
        return len(self.start) >= MAX_SPANS

    def open(self, name_id):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = NO_PARENT
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.item.append(self.current_item)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(index)
        return index

    def close(self, index):
        self.end[index] = perf_counter()
        self._stack().pop()

    def count(self, key, amount):
        with self._lock:
            self.counters[key] += amount

    def wrap(self, fn, span_name, on_result=None):
        """fn inside a span; on_result(value) runs after the span closes."""
        name_id = self.name_id(span_name)

        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                value = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(value)
            return value

        return traced

    def save(self, path):
        """Write the spans: one JSON header line, then the raw columns."""
        header = {"names": self.names, "counters": self.counters,
                  "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in self._columns():
                column.tofile(fh)

    @classmethod
    def load(cls, path):
        """A tracer holding the spans `save` wrote (nothing left open)."""
        tracer = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            for name in header["names"]:
                tracer.name_id(name)
            tracer.counters.update(header["counters"])
            for column in tracer._columns():
                column.fromfile(fh, header["spans"])
        return tracer

    def _columns(self):
        return self.name, self.start, self.end, self.parent, self.item


class TracedGroup(CountingGroup):
    """A CountingGroup that also records a span per group operation."""

    def __init__(self, inner, tracer):
        super().__init__(inner)
        self._tracer = tracer
        self._ids = {op: tracer.name_id("groups." + op)
                     for op in ("scalar_mul", "add", "encode")}

    def _traced(self, op, call, *args):
        index = self._tracer.open(self._ids[op])
        try:
            return call(*args)
        finally:
            self._tracer.close(index)

    def scalar_mul(self, k, e):
        return self._traced("scalar_mul", super().scalar_mul, k, e)

    def add(self, e1, e2):
        return self._traced("add", super().add, e1, e2)

    def encode(self, e):
        return self._traced("encode", super().encode, e)


# (module, attribute, span) for plain wrappers.  Names defined in the
# module itself are included where the benchmark or the module's own code
# calls them through the module (factoring.factor, probability.estimate).
_WRAPPED = (
    ("field", "is_probable_prime", "field.is_probable_prime"),
    ("groups", "is_probable_prime", "field.is_probable_prime"),
    ("factoring", "is_probable_prime", "field.is_probable_prime"),
    ("probability", "is_probable_prime", "field.is_probable_prime"),
    ("catalog", "is_probable_prime", "field.is_probable_prime"),
    ("factoring", "factor", "factoring.factor"),
    ("factoring", "find_primitive_root", "factoring.find_primitive_root"),
    ("factoring", "subgroup_generator", "factoring.subgroup_generator"),
    ("catalog", "find_primitive_root", "factoring.find_primitive_root"),
    ("catalog", "subgroup_generator", "factoring.subgroup_generator"),
    ("cli", "factor", "factoring.factor"),
    ("parallel", "giant_encodings", "bsgs.giant_encodings"),
    ("parallel", "randomized_solve", "parallel.campaign"),
    ("probability", "estimate", "probability.estimate"),
    ("probability", "build_table", "probability.build_table"),
    ("cli", "estimate", "probability.estimate"),
    ("cli", "build_table", "probability.build_table"),
    ("catalog", "audit_key", "catalog.audit_key"),
    ("catalog", "verify_record", "catalog.verify_record"),
    ("cli", "audit_key", "catalog.audit_key"),
    ("cli", "verify_record", "catalog.verify_record"),
    ("cli", "main", "cli.main"),
)

# Names whose return value feeds a counter: every solve verdict.
_SOLVERS = (("bsgs", "solve_in_subgroup"), ("parallel", "solve_in_subgroup"),
            ("catalog", "solve_in_subgroup"))

# Group constructors: construction and validation become `groups.init`,
# and the group handed back is a TracedGroup.
_GROUP_CLASSES = (("groups", "AdditiveOracleGroup"),
                  ("groups", "MultiplicativeGroup"),
                  ("groups", "CurveGroup"),
                  ("catalog", "AdditiveOracleGroup"),
                  ("catalog", "CurveGroup"))


def instrument(tracer):
    """Install every wrapper; returns a function that removes them."""
    import importlib
    from subgroupdlp.bsgs import Found

    def module(name):
        return importlib.import_module("subgroupdlp." + name)

    def on_verdict(verdict):
        tracer.count("bsgs.steps", verdict.steps)
        tracer.count("bsgs.found", isinstance(verdict, Found))

    def traced_class(cls):
        build = tracer.wrap(cls, "groups.init")
        return lambda *args, **kwargs: TracedGroup(build(*args, **kwargs),
                                                   tracer)

    saved = []

    def install(mod_name, attr, replacement):
        mod = module(mod_name)
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, replacement)

    for mod_name, attr, span in _WRAPPED:
        install(mod_name, attr, tracer.wrap(getattr(module(mod_name), attr),
                                            span))
    for mod_name, attr in _SOLVERS:
        install(mod_name, attr, tracer.wrap(getattr(module(mod_name), attr),
                                            "bsgs.solve", on_verdict))
    for mod_name, attr in _GROUP_CLASSES:
        install(mod_name, attr, traced_class(getattr(module(mod_name), attr)))

    def uninstall():
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)

    return uninstall


# -- derivation ------------------------------------------------------------------


def self_times(start, end, parent):
    """Each span's duration minus the union of its children's intervals.

    Children on other threads may overlap one another, so their intervals
    are merged (and clipped to the parent) before they are subtracted.
    """
    children = {}
    for index, p in enumerate(parent):
        if p != NO_PARENT:
            children.setdefault(p, []).append(index)
    out = array("d", (e - s for s, e in zip(start, end)))
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            elif e > run_end:
                run_end = e
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


def nesting_errors(start, end, parent):
    """Spans that stick out of their parent's interval (should be none)."""
    return sum(1 for s, e, p in zip(start, end, parent)
               if p != NO_PARENT and (s < start[p] - NESTING_SLACK_S
                                      or e > end[p] + NESTING_SLACK_S))


def layer_totals(tracer):
    """Per span name: calls, inclusive seconds and self seconds.

    Returned twice, as (timed items only, every span including set-up).
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    items, everything = {}, {}
    for index, name_id in enumerate(tracer.name):
        name = tracer.names[name_id]
        duration = tracer.end[index] - tracer.start[index]
        targets = [everything]
        if tracer.item[index] != SETUP_ITEM:
            targets.append(items)
        for table in targets:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += selfs[index]
    return items, everything


def verify_attempts(tracer):
    """Verification multiplies: scalar_muls minus encodes under bsgs.solve.

    Every sweep step encodes the point it multiplies; the re-verification
    of a table hit is the only scalar_mul a solve does not encode.
    """
    solve = tracer._ids.get("bsgs.solve")
    smul = tracer._ids.get("groups.scalar_mul")
    enc = tracer._ids.get("groups.encode")
    if solve is None:
        return 0
    total = 0
    for index, name_id in enumerate(tracer.name):
        p = tracer.parent[index]
        if (p == NO_PARENT or tracer.name[p] != solve
                or tracer.item[index] == SETUP_ITEM):
            continue
        if name_id == smul:
            total += 1
        elif name_id == enc:
            total -= 1
    return total
