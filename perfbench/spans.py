"""Wall-clock spans around the program's layers, recorded from outside.

:func:`install` wraps the public functions and methods named in
:data:`LAYERS` in place (module attributes and class attributes), so the
program under test is unchanged on disk; :func:`uninstall` puts the
originals back.  Each thread keeps its own span stack in memory; spans
are only collected when the run ends.

Attribution (:func:`attribute`) follows the usual self-time rule — a
span's self time is its interval minus the part its child spans cover —
with two additions for a multi-threaded process:

* work a thread pool runs on behalf of a span is that span's child
  (:func:`install` links ``ThreadPoolExecutor.submit`` to the
  submitting thread's open span), so a sweep waiting on its worker
  threads has no self time while they run;
* where several threads have self time at the same instant, the instant
  is split evenly between them.  Self times therefore add up to the
  union of all spans, and ``wall - sum(self)`` is the time no layer
  covered (interpreter start-up, argument parsing, idle waits).

``cpu_ms`` is the thread CPU time of a span minus that of its
same-thread children; under the GIL, ``self_ms - cpu_ms`` is the time a
layer spent waiting (for the GIL, a disk flush or a socket).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer name, module, qualified attribute) of every timed layer.
#: ``models.lower`` is special-cased: every programming model class that
#: defines ``lower_cpu`` or ``lower_gpu`` gets wrapped.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("sched.thread_sim", "repro.sched.thread_sim",
     "simulate_parallel_region"),
    ("sim.fluid", "repro.sim.fluid", "FluidSimulation.run"),
    ("models.lower", "repro.models.base", "ProgrammingModel"),
    ("sim.executor", "repro.sim.executor", "simulate_cpu_kernel"),
    ("sim.variability", "repro.sim.variability", "VariabilityModel.samples"),
    ("gpu.warp_sim", "repro.gpu.warp_sim", "simulate_gpu_kernel"),
    ("harness.runner", "repro.harness.runner", "run_measurement"),
    ("harness.engine.cache.put", "repro.harness.engine.cache",
     "ResultCache.put"),
    ("harness.engine.cache.get", "repro.harness.engine.cache",
     "ResultCache.get"),
    ("harness.engine.sweep", "repro.harness.engine.executor",
     "SweepEngine.run"),
    ("harness.report_all", "repro.harness.report_all", "full_report"),
    ("harness.journal.append", "repro.harness.journal.journal",
     "RunJournal.append"),
    ("service.daemon.http_get", "repro.service.daemon", "_Handler.do_GET"),
    ("service.daemon.http_post", "repro.service.daemon", "_Handler.do_POST"),
    ("service.service.step", "repro.service.service", "CampaignService.step"),
    ("service.service.submit", "repro.service.service",
     "CampaignService.submit_idempotent"),
    ("service.scheduler.select", "repro.service.scheduler",
     "FairShareScheduler.select"),
    ("service.scheduler.charge", "repro.service.scheduler",
     "FairShareScheduler.charge"),
)

#: Layer names in report order; ``cli.import`` is recorded by the traced
#: CLI entry point around ``import repro.cli``.
LAYER_NAMES: Tuple[str, ...] = ("cli.import",) + tuple(n for n, _, _ in LAYERS)


class Span:
    __slots__ = ("sid", "parent", "tid", "name", "t0", "t1", "c0", "c1")

    def __init__(self, sid: int, parent: Optional[int], tid: int,
                 name: str) -> None:
        self.sid = sid
        self.parent = parent
        self.tid = tid
        self.name = name
        self.t0 = time.perf_counter()
        self.c0 = time.thread_time()
        self.t1 = self.t0
        self.c1 = self.c0

    def to_list(self) -> list:
        return [self.sid, self.parent, self.tid, self.name,
                self.t0, self.t1, self.c0, self.c1]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls.__new__(cls)
        (span.sid, span.parent, span.tid, span.name,
         span.t0, span.t1, span.c0, span.c1) = row
        return span


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.done: Optional[List[Span]] = None
        #: Span that handed this thread its current task (thread pools).
        self.link: Optional[int] = None


class Tracer:
    """Per-thread span stacks plus a few counters, all in memory."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._buffers: List[List[Span]] = []
        self._ids = itertools.count(1)
        self.counters: Counter = Counter()
        #: Campaign id -> submit time / first scheduler selection time.
        self.submitted: Dict[str, float] = {}
        self.first_selected: Dict[str, float] = {}

    def _done(self) -> List[Span]:
        local = self._local
        if local.done is None:
            local.done = []
            with self._lock:
                self._buffers.append(local.done)
        return local.done

    def enter(self, name: str) -> Optional[Span]:
        """Open a span; ``None`` when the thread is already inside one of
        the same layer (a re-entrant call belongs to the outer span)."""
        local = self._local
        stack = local.stack
        if stack and stack[-1].name == name:
            return None
        parent = stack[-1].sid if stack else local.link
        span = Span(next(self._ids), parent, threading.get_ident(), name)
        stack.append(span)
        return span

    def exit(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.c1 = time.thread_time()
        span.t1 = time.perf_counter()
        self._local.stack.pop()
        self._done().append(span)

    def current(self) -> Optional[int]:
        local = self._local
        return local.stack[-1].sid if local.stack else local.link

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def spans(self) -> List[Span]:
        with self._lock:
            return [s for buf in self._buffers for s in buf]

    def dump(self) -> Dict[str, Any]:
        return {"spans": [s.to_list() for s in self.spans()],
                "counters": dict(self.counters)}


# -- installation --------------------------------------------------------

def _timed(tracer: Tracer, name: str, fn: Callable,
           after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if after is not None and span is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _after_fluid(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("sim.fluid.flows", len(args[1]))


def _after_cache_get(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.count("harness.engine.cache.get.hits")


def _after_submit(tracer: Tracer, args: tuple, result: Any) -> None:
    campaign_id, duplicate = result
    if not duplicate:
        tracer.submitted.setdefault(campaign_id, time.perf_counter())


def _after_select(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None and result not in tracer.first_selected:
        tracer.first_selected[result] = time.perf_counter()


_AFTER = {
    "sim.fluid": _after_fluid,
    "harness.engine.cache.get": _after_cache_get,
    "service.service.submit": _after_submit,
    "service.scheduler.select": _after_select,
}


class Installed:
    """Handle returned by :func:`install`; :func:`uninstall` undoes it."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)


def _model_classes(base: type) -> List[type]:
    seen: List[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def install(tracer: Tracer) -> Installed:
    """Wrap every layer in :data:`LAYERS` and link thread-pool tasks."""
    handle = Installed()
    for name, module_name, qualname in LAYERS:
        module = importlib.import_module(module_name)
        if name == "models.lower":
            importlib.import_module("repro.models.registry")
            for cls in _model_classes(getattr(module, qualname)):
                for attr in ("lower_cpu", "lower_gpu"):
                    if attr in cls.__dict__:
                        handle.patch(cls, attr, _timed(
                            tracer, name, cls.__dict__[attr]))
            continue
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            handle.patch(cls, attr, _timed(tracer, name, cls.__dict__[attr],
                                           _AFTER.get(name)))
            continue
        original = getattr(module, qualname)
        wrapper = _timed(tracer, name, original, _AFTER.get(name))
        # Rebind every module-level alias (``from x import f`` copies).
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    handle.patch(mod, attr, wrapper)

    client_mod = importlib.import_module("repro.service.client")
    client_cls = client_mod.ServiceClient
    campaign = client_cls.__dict__["campaign"]

    @functools.wraps(campaign)
    def counted_campaign(self: Any, campaign_id: str) -> Any:
        tracer.count("service.client.campaign.calls")
        return campaign(self, campaign_id)

    handle.patch(client_cls, "campaign", counted_campaign)

    submit = ThreadPoolExecutor.__dict__["submit"]

    @functools.wraps(submit)
    def linked_submit(self: Any, fn: Callable, /, *args: Any,
                      **kwargs: Any) -> Any:
        parent = tracer.current()

        def task(*a: Any, **kw: Any) -> Any:
            local = tracer._local
            previous, local.link = local.link, parent
            try:
                return fn(*a, **kw)
            finally:
                local.link = previous
        return submit(self, task, *args, **kwargs)

    handle.patch(ThreadPoolExecutor, "submit", linked_submit)
    return handle


def uninstall(handle: Installed) -> None:
    for owner, attr, original in reversed(handle.patches):
        setattr(owner, attr, original)
    handle.patches.clear()


# -- attribution ---------------------------------------------------------

def attribute(spans: List[Span], t_lo: float = float("-inf"),
              t_hi: float = float("inf")
              ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Per-layer (self seconds, self CPU seconds, calls) in [t_lo, t_hi].

    Spans are clipped to the window; a span counts as a call when it
    started inside it.
    """
    by_id = {s.sid: s for s in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)

    calls: Dict[str, int] = defaultdict(int)
    cpu: Dict[str, float] = defaultdict(float)
    segments: List[Tuple[float, float, str]] = []
    for s in spans:
        a, b = max(s.t0, t_lo), min(s.t1, t_hi)
        if b <= a:
            continue
        if s.t0 >= t_lo:
            calls[s.name] += 1
        kids = children.get(s.sid, ())
        cpu[s.name] += (s.c1 - s.c0) - sum(
            c.c1 - c.c0 for c in kids if c.tid == s.tid)
        cur = a
        for k0, k1 in sorted((max(c.t0, a), min(c.t1, b)) for c in kids):
            if k0 > cur:
                segments.append((cur, k0, s.name))
            cur = max(cur, k1)
        if cur < b:
            segments.append((cur, b, s.name))

    # Sweep the self segments; an instant shared by k threads' self
    # segments is split k ways.
    events = sorted(
        [(a, 1, i) for i, (a, _, _) in enumerate(segments)]
        + [(b, 0, i) for i, (_, b, _) in enumerate(segments)])
    own: Dict[str, float] = defaultdict(float)
    active: set = set()
    prev = None
    for t, kind, i in events:
        if active and t > prev:
            share = (t - prev) / len(active)
            for j in active:
                own[segments[j][2]] += share
        prev = t
        if kind:
            active.add(i)
        else:
            active.discard(i)
    return dict(own), dict(cpu), dict(calls)
