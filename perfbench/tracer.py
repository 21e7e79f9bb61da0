"""Outside-in layer tracing of isgw.

The program is not edited.  Tracer.install() replaces every public function
of the layer modules, and the listed class methods, with a timing wrapper
at every place the function is bound: module globals (including names
brought in by ``from ... import``), lists held in module globals (such as
``verify.SEMIGROUP_CHECKS``) and class attributes.  uninstall() puts every
original object back.

A wrapper records calls, inclusive time (outermost activation only, so
recursion is not counted twice) and self time (inclusive time minus the
time spent in wrapped callees).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("core", "semilattice", "relations", "congruences", "ideals_filters",
          "groupoid", "graphs", "selfsimilar", "corpus", "verify", "report")

METHODS = {
    "core": ("InverseSemigroup.order",),
    "graphs": ("TruncatedGraphSemigroup.to_inverse_semigroup",),
    "selfsimilar": ("TruncatedActionSemigroup.to_inverse_semigroup",),
    "report": ("Report.to_json",),
}

# Functions whose distinct first arguments (semigroup objects) are counted.
PER_SEMIGROUP = ("relations.h_and_mu", "congruences.double_arrow",
                 "ideals_filters.enumerate_ideals", "groupoid.build_groupoids")

CLOSURE = "core.from_partial_bijections"
RANDOM_CORPUS = "corpus.random_subsemigroups"


class Stat:
    """Counters of one traced function.  ``elements`` sums |S| over returned
    closures, or the semigroups kept by the random corpus; ``closures_inside``
    counts closures attempted while the random corpus is running."""

    __slots__ = ("calls", "incl", "self", "firsts", "elements", "active",
                 "closures_inside")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.firsts = {}  # id -> object, kept alive so ids are not reused
        self.elements = 0
        self.active = 0
        self.closures_inside = 0


def _targets() -> dict:
    """{"module.qualname": (owner, attribute, original)} for every traced
    function; owner is the defining module or class."""
    out = {}
    for layer in LAYERS:
        module = sys.modules.get(f"isgw.{layer}")
        if module is None:
            continue
        for name, value in vars(module).items():
            if (inspect.isfunction(value) and not name.startswith("_")
                    and value.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(value)):
                out[f"{layer}.{name}"] = (module, name, value)
        for qualname in METHODS.get(layer, ()):
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name, None)
            if cls is not None and inspect.isfunction(vars(cls).get(attr)):
                out[f"{layer}.{qualname}"] = (cls, attr, vars(cls)[attr])
    return out


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []  # [start, time in wrapped callees] per activation
        self._restore = []  # (kind, holder, slot, original)

    # -- binding management ----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = _targets()
        self.stats = {key: Stat() for key in targets}
        wrapper_of = {}
        for key, (owner, attr, original) in targets.items():
            wrapper_of[id(original)] = self._wrap(key, original)
            if inspect.isclass(owner):
                self._restore.append(("attr", owner, attr, original))
                setattr(owner, attr, wrapper_of[id(original)])
        originals = {id(orig): orig for _, _, orig in targets.values()}
        for module in [m for name, m in sorted(sys.modules.items())
                       if name == "isgw" or name.startswith("isgw.")]:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if originals.get(id(value)) is value:
                    self._restore.append(("attr", module, name, value))
                    setattr(module, name, wrapper_of[id(value)])
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if originals.get(id(item)) is item:
                            self._restore.append(("item", value, i, item))
                            value[i] = wrapper_of[id(item)]

    def uninstall(self) -> None:
        for kind, holder, slot, original in reversed(self._restore):
            if kind == "attr":
                setattr(holder, slot, original)
            else:
                holder[slot] = original
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- timing ----------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        stack = self._stack
        count_first = key in PER_SEMIGROUP
        is_closure = key == CLOSURE
        is_corpus = key == RANDOM_CORPUS
        corpus_stat = self.stats.get(RANDOM_CORPUS, Stat())
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            if count_first and args:
                stat.firsts[id(args[0])] = args[0]
            if is_closure and corpus_stat.active:
                corpus_stat.closures_inside += 1
            stat.active += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                stat.active -= 1
                stat.self += elapsed - frame[1]
                if not stat.active:
                    stat.incl += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if is_closure:
                stat.elements += result.n
            elif is_corpus:
                stat.elements += len(result)
            return result

        return traced

    # -- results ----------------------------------------------------------------

    def per_semigroup(self, key: str) -> float:
        stat = self.stats.get(key)
        if stat is None or not stat.firsts:
            return 0.0
        return stat.calls / len(stat.firsts)

    def kept_ratio(self) -> float:
        """Random-corpus semigroups kept per closure attempted."""
        stat = self.stats.get(RANDOM_CORPUS)
        if stat is None or not stat.closures_inside:
            return 0.0
        return stat.elements / stat.closures_inside

    def module_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for key, stat in self.stats.items():
            out[key.split(".")[0]] += stat.self
        return out
