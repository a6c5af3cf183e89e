"""Span recorders wrapped around the public calls of each tametorus layer.

`Tracer.install()` replaces each traced function with a recorder in every
tametorus module namespace that binds it (galois, torus and torsor import
names such as `kernel_basis` and `norm_class` directly, so patching only
the defining module would miss their calls), and wraps the `__init__` of
the traced classes.  `uninstall()` puts every original back.

A span is (name, start ns, end ns, parent span, query id).  Spans are
kept in arrays in memory; `aggregate()` turns one pass's spans into
per-name call counts and self time, and `dump()` writes them out.
A span's self time is its duration minus the durations of its direct
children (calls nest on one thread, so children never overlap).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# Span name -> (module, attribute).  Module-level functions are rebound
# wherever they are bound; classes get their __init__ wrapped.
TRACED = {
    "lattice.snf": ("lattice", "smith_normal_form"),
    "lattice.unimodular_inverse": ("lattice", "unimodular_inverse"),
    "lattice.kernel_basis": ("lattice", "kernel_basis"),
    "lattice.image_basis": ("lattice", "image_basis"),
    "lattice.saturate": ("lattice", "saturate"),
    "lattice.solve": ("lattice", "solve"),
    "lattice.solve_matrix": ("lattice", "solve_matrix"),
    "lattice.lattices_equal": ("lattice", "lattices_equal"),
    "lattice.cokernel": ("lattice", "cokernel"),
    "lattice.subquotient": ("lattice", "subquotient"),
    "lattice.quotient": ("lattice", "LatticeQuotient"),
    "galois.close_group": ("galois", "close_group"),
    "galois.module_init": ("galois", "GaloisLatticeModule"),
    "galois.coinvariants": ("galois", "coinvariants"),
    "galois.invariants": ("galois", "invariants"),
    "galois.tame_quotient": ("galois", "largest_trivial_free_quotient"),
    "galois.endomorphism_order": ("galois", "endomorphism_order"),
    "galois.cyclic_h1": ("galois", "cyclic_h1"),
    "torus.norm_torus_spec": ("torus", "norm_torus_spec"),
    "torus.cocharacter_action": ("torus", "cocharacter_action"),
    "torus.component_group": ("torus", "component_group"),
    "torus.h1_frobenius": ("torus", "h1_frobenius"),
    "padic.context": ("padic", "PadicContext"),
    "padic.primitive_root": ("padic", "smallest_primitive_root"),
    "padic.eth_power_class": ("padic", "eth_power_class"),
    "padic.norm_class": ("padic", "norm_class"),
    "padic.oracle": ("padic", "norm_class_oracle"),
    "torsor.evaluate": ("torsor", "evaluate"),
    "torsor.special_eval": ("torsor", "special_eval"),
    "torsor.verify": ("torsor", "verify_factorization"),
    "torsor.constancy": ("torsor", "constancy_check"),
    "cli.main": ("cli", "main"),
    "cli.build_parser": ("cli", "build_parser"),
}
LAYERS = ("lattice", "galois", "torus", "padic", "torsor", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = list(TRACED) + ["query"]
        self.query_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.qid = array("i")
        self._stack = [-1]
        # Group elements returned by the traced close_group calls.
        self.elements = 0

    def _recorder(self, name_id: int, fn, count_elements: bool = False):
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.qid.append(tracer.query_id)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if count_elements:
                tracer.elements += result.order
            return result
        traced.__wrapped__ = fn
        return traced

    def begin_query(self, qid: int) -> None:
        self.query_id = qid
        idx = len(self.name)
        self.name.append(len(self.names) - 1)
        self.parent.append(-1)
        self.qid.append(qid)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)

    def end_query(self) -> None:
        idx = self._stack.pop()
        self.end[idx] = time.perf_counter_ns()

    def _modules(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def install(self) -> None:
        modules = self._modules()
        for name_id, (span, (mod_name, attr)) in enumerate(TRACED.items()):
            original = getattr(getattr(self.package, mod_name), attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patch(original, "__init__", self._recorder(name_id, init))
                continue
            wrapper = self._recorder(name_id, original, span == "galois.close_group")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def aggregate(self) -> dict:
        """Per span name: calls and self_s; and each query's span durations
        by name."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        stats = defaultdict(lambda: [0, 0])
        by_query = defaultdict(list)
        for i in range(n):
            name = self.names[self.name[i]]
            s = stats[name]
            s[0] += 1
            s[1] += dur[i] - child[i]
            by_query[(self.qid[i], name)].append(dur[i] / 1e9)
        return {
            "spans": {k: {"calls": v[0], "self_s": v[1] / 1e9} for k, v in stats.items()},
            "by_query": by_query,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name", "start_ns", "end_ns", "parent", "query"],
                "spans": [[self.name[i], self.start[i], self.end[i], self.parent[i], self.qid[i]]
                          for i in range(len(self.name))],
            }, fh, separators=(",", ":"))
