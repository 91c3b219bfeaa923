"""Per-layer spans recorded from outside the package.

:meth:`Tracer.install` replaces each public function listed in ``TARGETS``
with a timing wrapper, in every ``qwchannel`` module namespace (and tuple)
that holds it, because each module calls the others through its own
imported names.  Spans stay in memory; :meth:`Tracer.summary` reduces them
to per-layer calls, inclusive time, self time and work counts.

Self time is a span's interval minus the part covered by its child spans.
A span opened by a pool thread with an empty stack is a child of the span
open on the main thread at that moment.  Where spans of several threads
are "self" at once, the wall time of that stretch is shared equally among
them, so the self times of all layers plus the unattributed remainder sum
exactly to the job's wall time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _evolve_extra(args, kwargs, result):
    psi0 = _arg(args, kwargs, 0, "psi0")
    theta = float(_arg(args, kwargs, 1, "theta"))
    steps = int(_arg(args, kwargs, 2, "t"))
    sites = len(psi0) // 2
    origin = (sites - 1) // 2
    key = (theta, complex(psi0[origin]), complex(psi0[sites + origin]))
    return steps, sites, key


def _set_size(args, kwargs, result):
    return len(result.entries)


def _apply_extra(args, kwargs, result):
    kraus = _arg(args, kwargs, 0, "kraus")
    size = len(kraus.entries) if hasattr(kraus, "entries") else len(kraus)
    # the set itself is kept so that its id stays unique for the whole job
    return size, kraus


# (module, attribute, span name, extra-count function)
TARGETS = (
    ("qwchannel.walk", "evolve", "walk.evolve", _evolve_extra),
    ("qwchannel.kraus", "extract_kraus_direct", "kraus.extract_kraus_direct", _set_size),
    ("qwchannel.kraus", "extract_kraus_binomial", "kraus.extract_kraus_binomial", _set_size),
    ("qwchannel.kraus", "extract_kraus_split_step", "kraus.extract_kraus_split_step", None),
    ("qwchannel.kraus", "KrausSet.to_json", "kraus.to_json", None),
    ("qwchannel.channels", "apply_kraus", "channels.apply_kraus", _apply_extra),
    ("qwchannel.channels", "rtn_lambda", "channels.rtn_lambda", None),
    ("qwchannel.channels", "rtn_kraus", "channels.rtn_kraus", None),
    ("qwchannel.witnesses", "td_series", "witnesses.td_series", None),
    ("qwchannel.witnesses", "trace_distance", "witnesses.trace_distance", None),
    ("qwchannel.witnesses", "purity", "witnesses.purity", None),
    ("qwchannel.witnesses", "holevo_max", "witnesses.holevo_max", None),
    ("qwchannel.verification", "run_checks", "verification.run_checks", None),
    ("qwchannel.verification", "check_completeness",
     "verification.check_completeness", None),
    ("qwchannel.cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans = []       # (name, start, end, span id, parent id, extra)
        self.entropy_calls = []  # id of the span open when an entropy was evaluated
        self.pool_sizes = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name, fn, extra):
        spans, ids, stack_of, main = self.spans, self._ids, self._stack, self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(ids)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                counted = extra(args, kwargs, result) if extra and result is not None else None
                spans.append((name, start, end, sid, parent, counted))

        return wrapper

    def _count_entropy(self, fn):
        calls, stack_of = self.entropy_calls, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            calls.append(stack[-1] if stack else 0)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qwchannel" or n.startswith("qwchannel.")]
        for module_name, attr, name, extra in TARGETS:
            self._replace(modules, module_name, attr, lambda fn, n=name, e=extra:
                          self._wrap(n, fn, e))
        self._replace(modules, "qwchannel.witnesses", "von_neumann_entropy",
                      self._count_entropy)
        cli = sys.modules.get("qwchannel.cli")
        pool = getattr(cli, "ThreadPoolExecutor", None)
        if pool is not None:
            sizes = self.pool_sizes

            class CountingPool(pool):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    sizes.append(self._max_workers)

            cli.ThreadPoolExecutor = CountingPool

    @staticmethod
    def _replace(modules, module_name, attr, make) -> None:
        holder = sys.modules.get(module_name)
        *path, last = attr.split(".")
        for part in path:
            holder = getattr(holder, part, None)
        original = getattr(holder, last, None)
        if original is None:
            return
        wrapper = make(original)
        setattr(holder, last, wrapper)
        if path:
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, tuple) and any(v is original for v in value):
                    setattr(module, key, tuple(wrapper if v is original else v
                                               for v in value))

    def summary(self, t0: float, t1: float) -> dict:
        """Reduce the spans of one job timed over [t0, t1] to per-layer totals."""
        children = defaultdict(list)
        names = {}
        layers = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, sid, parent, _ in self.spans:
            children[parent].append((start, end))
            names[sid] = name
            layers[name][0] += 1
            layers[name][1] += end - start

        events = []
        for name, start, end, sid, _, _ in self.spans:
            cursor = start
            for a, b in sorted(children.get(sid, ())):
                if a > cursor:
                    events.append((cursor, 1, name))
                    events.append((min(a, end), -1, name))
                cursor = max(cursor, b)
            if end > cursor:
                events.append((cursor, 1, name))
                events.append((end, -1, name))
        events.sort()
        active = defaultdict(int)
        depth, prev, covered = 0, t0, 0.0
        for moment, delta, name in events:
            if depth:
                share = (moment - prev) / depth
                covered += moment - prev
                for layer, count in active.items():
                    layers[layer][2] += share * count
            prev = moment
            active[name] += delta
            depth += delta
            if not active[name]:
                del active[name]

        site_steps = steps = 0
        longest = {}
        operators_built = operators_applied = 0
        applied_sets = set()
        for name, _, _, _, _, extra in self.spans:
            if extra is None:
                continue
            if name == "walk.evolve":
                t, sites, key = extra
                site_steps += t * sites
                steps += t
                longest[key] = max(longest.get(key, 0), t)
            elif name == "channels.apply_kraus":
                operators_applied += extra[0]
                applied_sets.add(id(extra[1]))
            else:
                operators_built += extra
        return {
            "layers": {name: list(values) for name, values in layers.items()},
            "counts": {
                "evolve_site_steps": site_steps,
                "evolve_steps": steps,
                "evolve_useful_steps": sum(longest.values()),
                "operators_built": operators_built,
                "operators_applied": operators_applied,
                "sets_applied": len(applied_sets),
                "holevo_entropy_evals": sum(1 for sid in self.entropy_calls
                                            if names.get(sid) == "witnesses.holevo_max"),
                "pool_threads": max(self.pool_sizes, default=0),
            },
            "unattributed_s": (t1 - t0) - covered,
        }
