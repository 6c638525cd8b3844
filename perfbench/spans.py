"""Spans around the calls into each ``defalg`` layer, recorded from outside.

``Tracer.install`` wraps every public function, every public method and
every ``__init__`` defined in the layer modules, in every module namespace
and module-level dict that binds them (``models`` and ``cli`` import
``tensor_dgla`` by name; ``cli.COMMANDS`` holds the command functions).
Nothing inside ``src/`` changes.

Each span has a name, a start, an end, a parent and the id of the job it
belongs to.  Spans stay in memory until ``write``.  A span's self time is
its duration minus the durations of its child spans, so the self times of
the layers plus the benchmark's own ``job`` spans add up to the traced job
time.  Work counters are taken at the same boundaries; the time spent
counting is booked to the ``trace`` pseudo-layer, not to any layer.
"""

import functools
import gzip
import inspect
from array import array
from time import perf_counter_ns

from layers import LAYERS


def _max_bits(matrix):
    best = 0
    for row in matrix:
        for x in row:
            if x:
                best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return best


def _count_rref(c, args, result):
    a = args[0]
    c["linalg.rref_cells"] += len(a) * (len(a[0]) if a else 0)
    c["linalg.rref_max_bits"] = max(c["linalg.rref_max_bits"], _max_bits(result[0]))


def _count_independent(c, args, result):
    c["linalg.independent_subset_vectors"] += len(args[0])


def _count_cohomology(c, args, result):
    c["graded.cohomology_dim_sum"] += args[0].space.dim


def _count_tensor(c, args, result):
    c["dgla.tensor_dim_sum"] += result.dim


def _count_parse(c, args, result):
    c["docio.bytes"] += len(args[0].encode("utf-8"))


def _count_print(c, args, result):
    c["docio.bytes"] += len(result.encode("utf-8"))


# qualified name -> counter hook(counters, args, result)
HOOKS = {
    "linalg.rref": _count_rref,
    "linalg.independent_subset": _count_independent,
    "graded.cohomology": _count_cohomology,
    "dgla.tensor_dgla": _count_tensor,
    "docio.parse": _count_parse,
    "docio.print_document": _count_print,
}

HOOK_COUNTERS = ("linalg.rref_cells", "linalg.rref_max_bits",
                 "linalg.independent_subset_vectors", "graded.cohomology_dim_sum",
                 "dgla.tensor_dim_sum", "docio.bytes")


class Tracer:
    """Records spans and per-name call counts, inclusive and self times."""

    def __init__(self):
        self.names = []            # name id -> qualified name
        self.layer_of = []         # name id -> layer
        self.spans = array("q")    # (job, name id, start, end, parent) per span
        self.stack = []            # open spans: [name id, start, child time, index]
        self.job = -1
        self.reset()

    def reset(self):
        """Start a new accumulation period (one round)."""
        self.calls = [0] * len(self.names)
        self.incl = [0] * len(self.names)
        self.own = [0] * len(self.names)
        self.active = [0] * len(self.names)
        self.self_ns = {}
        self.counters = dict.fromkeys(HOOK_COUNTERS, 0)

    def name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        for lst in (self.calls, self.incl, self.own, self.active):
            lst.append(0)
        return len(self.names) - 1

    def begin(self, nid):
        start = perf_counter_ns()
        parent = self.stack[-1][3] if self.stack else -1
        index = len(self.spans) // 5
        self.spans.extend((self.job, nid, start, 0, parent))
        self.stack.append([nid, start, 0, index])
        self.active[nid] += 1

    def end(self, nid):
        stop = perf_counter_ns()
        _, start, child, index = self.stack.pop()
        self.spans[index * 5 + 3] = stop
        dur = stop - start
        layer = self.layer_of[nid]
        self.self_ns[layer] = self.self_ns.get(layer, 0) + dur - child
        self.own[nid] += dur - child
        self.calls[nid] += 1
        self.active[nid] -= 1
        if not self.active[nid]:
            self.incl[nid] += dur          # outermost call only
        if self.stack:
            self.stack[-1][2] += dur
        return stop

    def book_counting(self, since):
        """Charge the time since ``since`` to the ``trace`` pseudo-layer."""
        spent = perf_counter_ns() - since
        self.self_ns["trace"] = self.self_ns.get("trace", 0) + spent
        if self.stack:
            self.stack[-1][2] += spent

    def span(self, name, layer="bench"):
        """Context manager for the benchmark's own spans (one per job)."""
        return _Span(self, self.name_id(name, layer) if name not in self.names
                     else self.names.index(name))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, qualname, layer):
        nid = self.name_id(qualname, layer)
        hook = HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(nid)
                raise
            stop = tracer.end(nid)
            if hook is not None:
                hook(tracer.counters, args, result)
                tracer.book_counting(stop)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def install(self, package):
        """Wrap the layers of an imported ``defalg`` package in place."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced = {}                  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    replaced[id(obj)] = self.wrap(obj, "%s.%s" % (layer, name), layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod in list(modules.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in replaced:
                            obj[key] = replaced[id(val)]
        self.reset()

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name != "__init__" and name.startswith("_"):
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(attr.__func__, qual, layer)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(attr.__func__, qual, layer)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(attr, qual, layer))

    # -- results --------------------------------------------------------------

    def totals(self):
        """Per-name calls, inclusive seconds and self seconds of the current period."""
        used = [(i, n) for i, n in enumerate(self.names) if self.calls[i]]
        return ({n: self.calls[i] for i, n in used},
                {n: self.incl[i] / 1e9 for i, n in used},
                {n: self.own[i] / 1e9 for i, n in used})

    def write(self, path):
        """All spans as gzip'd TSV: job, name, start_ns, end_ns, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job\tname\tlayer\tstart_ns\tend_ns\tparent\n")
            s = self.spans
            for k in range(0, len(s), 5):
                nid = s[k + 1]
                fh.write("%d\t%s\t%s\t%d\t%d\t%d\n" % (
                    s[k], self.names[nid], self.layer_of[nid], s[k + 2], s[k + 3], s[k + 4]))


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.begin(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.nid)
        return False
