"""Per-layer tracing from outside the program.

Three instruments, none of which edits ``src/``:

* :class:`SpanRecorder` wraps the public functions at each layer
  boundary (:data:`SPAN_TARGETS`) and records one span per call
  (name, start, end, parent) plus boundary counts;
* :class:`LayerSampler` is a ``setitimer(ITIMER_PROF)`` sampling
  profiler that buckets each sample by the ``src/repro`` module of the
  innermost program frame on the stack (:func:`layer_of`);
* :class:`GcMonitor` times every collection through ``gc.callbacks``.

A discrete-event kernel runs most layer code inside its own dispatch
loop, where no public call boundary exists, so per-layer *self share*
comes from the sampler; spans give call counts, nesting and the time
spent inside each wrapped call.
"""

import gc
import importlib
import os
import signal
from array import array
from time import perf_counter, process_time

#: Layer of each ``repro`` module, by longest dotted prefix.  The bare
#: package ``repro`` matches only itself, so a new top-level package
#: has no layer until it is listed here (the tests check coverage).
LAYER_RULES = {
    "repro.des": "des",
    "repro.des.server": "des.server",
    "repro.engine": "engine",
    "repro.core": "core.model",
    "repro.core.conflict": "core.conflict",
    "repro.core.hierarchy_engine": "core.conflict",
    "repro.core.metrics": "core.metrics",
    "repro.core.results": "core.metrics",
    "repro.stats": "core.metrics",
    "repro.lockmgr": "lockmgr",
    "repro.policies": "policies",
    "repro.experiments": "experiments",
    "repro.obs": "obs",
    "repro.analytic": "misc",
    "repro.faults": "misc",
    "repro.net": "misc",
    "repro.cli": "misc",
}

#: Sample buckets that are not ``repro`` modules: time inside the
#: garbage collector, and samples with no ``repro`` frame on the stack
#: (the benchmark's own loop, interpreter start-up and shutdown).
GC_BUCKET = "gc"
HOST_BUCKET = "host"

#: Every bucket a sample can land in, mapped to its metric prefix.
SHARE_PREFIX = {
    "des": "des",
    "des.server": "server",
    "engine": "engine",
    "core.conflict": "conflict",
    "lockmgr": "lockmgr",
    "policies": "policies",
    "core.model": "model",
    "core.metrics": "metrics",
    "experiments": "harness",
    "obs": "obs",
    "misc": "misc",
    GC_BUCKET: "gc",
    HOST_BUCKET: "host",
}


def layer_of(module):
    """Layer of dotted *module* name, or ``None`` when it has none."""
    if module == "repro":
        return "misc"
    name = module
    while "." in name:
        layer = LAYER_RULES.get(name)
        if layer is not None:
            return layer
        name = name.rsplit(".", 1)[0]
    return None


def module_of(path, src_root):
    """Dotted module name of source file *path* under *src_root*, or ``None``."""
    prefix = os.path.join(src_root, "repro") + os.sep
    if not path.startswith(prefix) or not path.endswith(".py"):
        return None
    rel = os.path.relpath(path[:-3], src_root).split(os.sep)
    if rel[-1] == "__init__":
        rel.pop()
    return ".".join(rel)


#: (module, class or None, attribute, span name) of every wrapped call.
SPAN_TARGETS = (
    ("repro.des.engine", "Environment", "process", "des.process"),
    ("repro.des.engine", "Environment", "all_of", "des.all_of"),
    ("repro.des.server", "Server", "submit", "server.submit"),
    ("repro.engine.machine", "Machine", "lock_overhead", "engine.lock_overhead"),
    ("repro.core.conflict", "ProbabilisticConflicts", "request", "conflict.request"),
    ("repro.core.conflict", "ProbabilisticConflicts", "release", "conflict.release"),
    ("repro.core.conflict", "VectorizedConflicts", "request", "conflict.request"),
    ("repro.core.conflict", "VectorizedConflicts", "release", "conflict.release"),
    ("repro.core.conflict", "ExplicitConflicts", "request", "conflict.request"),
    ("repro.core.conflict", "ExplicitConflicts", "release", "conflict.release"),
    ("repro.core.hierarchy_engine", "HierarchicalConflicts", "request", "conflict.request"),
    ("repro.core.hierarchy_engine", "HierarchicalConflicts", "release", "conflict.release"),
    ("repro.lockmgr.manager", "LockManager", "acquire", "lockmgr.acquire"),
    ("repro.lockmgr.manager", "LockManager", "release_all", "lockmgr.release_all"),
    ("repro.lockmgr.deadlock", "DeadlockDetector", "resolve_once", "lockmgr.resolve_once"),
    ("repro.core.metrics", "MetricsCollector", "finalize", "metrics.finalize"),
    ("repro.core.model", "LockingGranularityModel", "__init__", "model.init"),
    ("repro.core.model", "LockingGranularityModel", "run", "model.run"),
    ("repro.experiments.runner", None, "run_experiments", "harness.run_experiments"),
    ("repro.experiments.cache", "ResultCache", "put", "cache.put"),
)


def _after_submit(recorder, args, kwargs, result):
    tag = args[3] if len(args) > 3 else kwargs.get("tag", "default")
    if tag == "lock":
        recorder.count("server.lock_jobs")


def _after_request(recorder, args, kwargs, result):
    if result is None:
        recorder.count("conflict.grants")


def _after_acquire(recorder, args, kwargs, result):
    if result.status.name != "GRANTED":
        recorder.count("lockmgr.queued")


def _after_run(recorder, args, kwargs, result):
    recorder.count("des.events", args[0].env.events_dispatched)


#: Boundary counts taken from a wrapped call's arguments or result.
AFTER_HOOKS = {
    "server.submit": _after_submit,
    "conflict.request": _after_request,
    "lockmgr.acquire": _after_acquire,
    "model.run": _after_run,
}


#: Spans a :class:`SpanRecorder` stores (24 bytes each, 72 MB in all); calls
#: beyond it are counted but not stored.
SPAN_CAP = 3_000_000

#: Seconds of process CPU time between two :class:`LayerSampler` samples.
SAMPLE_INTERVAL_S = 0.001


class SpanRecorder:
    """In-memory spans around the :data:`SPAN_TARGETS` calls.

    Spans are stored column-wise (name id, parent index, start, end)
    up to :data:`SPAN_CAP`; calls beyond it are still counted but not stored.
    A call that re-enters a span of the same name (a subclass method
    calling its base through ``super()``) is neither counted nor
    stored twice.
    """

    def __init__(self):
        self.names = []
        self._ids_by_name = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {}
        self.dropped = 0
        self._stack = []
        self._patches = []

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def spans(self):
        """Stored spans as ``(name, start, end, parent)`` tuples."""
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
        ]

    def _wrap(self, original, span):
        nid = self._ids_by_name.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        after = AFTER_HOOKS.get(span)
        stack = self._stack
        counts = self.counts
        name_col, parent_col = self.name_ids, self.parents
        start_col, end_col = self.starts, self.ends
        recorder = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return original(*args, **kwargs)
            counts[span] = counts.get(span, 0) + 1
            index = len(start_col)
            if index < SPAN_CAP:
                name_col.append(nid)
                parent_col.append(stack[-1][0] if stack else -1)
                end_col.append(0.0)
                start_col.append(perf_counter())
            else:
                index = -1
                recorder.dropped += 1
            stack.append((index, nid))
            try:
                result = original(*args, **kwargs)
            finally:
                if index >= 0:
                    end_col[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def start(self):
        """Patch every target that exists in the loaded program."""
        for module_name, class_name, attr, span in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name, None)
            if owner is None:
                continue
            original = vars(owner).get(attr)
            if original is None:
                continue
            setattr(owner, attr, self._wrap(original, span))
            self._patches.append((owner, attr, original))

    def stop(self):
        """Restore every patched function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class GcMonitor:
    """Total collector time and collections per generation, via ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = perf_counter()
        else:
            self.seconds += perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def start(self):
        gc.callbacks.append(self)

    def stop(self):
        gc.callbacks.remove(self)


#: A sample taken while the interpreter runs this code object landed
#: inside a collection (the profiling signal is delivered as soon as
#: the collector hands control back to Python, i.e. to the callback).
_GC_CODE = GcMonitor.__call__.__code__


class LayerSampler:
    """``ITIMER_PROF`` sampling profiler bucketing process CPU time by layer.

    Each sample is attributed to the innermost frame on the stack that
    belongs to a ``src/repro`` module, so standard-library helpers
    count toward the layer that called them; samples inside a
    :class:`GcMonitor` callback count as :data:`GC_BUCKET`, and samples
    with no program frame at all as :data:`HOST_BUCKET`.

    Python runs a signal handler only between bytecodes, and signals
    that arrive meanwhile coalesce into one, so a long collection or C
    call yields a single late sample.  Each sample is therefore
    weighted by the CPU time since the previous one.
    """

    def __init__(self, src_root):
        self.src_root = src_root
        self.counts = {}
        self.seconds = {}
        self._layers = {}
        self._previous = None
        self._last = 0.0

    def _layer_of_file(self, path):
        layer = self._layers.get(path, False)
        if layer is False:
            module = module_of(path, self.src_root)
            layer = None if module is None else (layer_of(module) or "misc")
            self._layers[path] = layer
        return layer

    def bucket(self, frame):
        """Bucket of a sample whose innermost frame is *frame*."""
        if frame is not None and frame.f_code is _GC_CODE:
            return GC_BUCKET
        while frame is not None:
            layer = self._layer_of_file(frame.f_code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return HOST_BUCKET

    def _handle(self, signum, frame):
        now = process_time()
        key = self.bucket(frame)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.seconds[key] = self.seconds.get(key, 0.0) + (now - self._last)
        self._last = now

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._handle)
        self._last = process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def shares(self):
        """{bucket: share of sampled CPU time} for every bucket in :data:`SHARE_PREFIX`."""
        total = sum(self.seconds.values())
        return {
            bucket: (self.seconds.get(bucket, 0.0) / total if total else 0.0)
            for bucket in SHARE_PREFIX
        }
