"""Spans and counters recorded around calls into coxembed's layers.

``Tracer.install`` wraps the public functions of each layer.  A function
is replaced under its name in every coxembed module that bound it, so
calls made through any import (``verify`` calling ``todd_coxeter``,
``tietze`` calling ``relator_nf``) are seen.  Counters come only from
arguments and return values.

Every wrapped call opens a span (name, start, end, parent, op id) kept in
memory until ``write``.  The two word primitives are called millions of
times, so they are counted (and ``relator_nf`` timed) in aggregate
instead: their time is still charged to the enclosing span as child time,
so self times stay exact.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from typing import Dict, List

_CLOCK = time.perf_counter

# span name -> [(module, function name)] wrapped into it
LAYERS = {
    "presentations.parse": [("presentations", f) for f in (
        "parse_presentation", "parse_word", "parse_matrix_text", "parse_vector_text")],
    "presentations.build": [("presentations", f) for f in (
        "build_thm1_instance", "build_prop2_instance", "build_klein_instance",
        "build_artin_instance", "coxeter_presentation", "pc_presentation", "artin_presentation")],
    "schreier.raw_kernel": [("schreier", "raw_kernel_presentation")],
    "schreier.evaluated_kernel": [("schreier", "evaluated_kernel_presentation")],
    "tietze.simplify": [("tietze", "simplify")],
    "verify.todd_coxeter": [("verify", "todd_coxeter")],
    "verify.word_holds": [("verify", "word_holds")],
    "verify.abelianization": [("verify", "abelianization")],
    "verify.match": [("verify", "match_presentations")],
    "verify.verify_instance": [("verify", "verify_instance")],
    "cli.main": [("cli", "main")],
}

MODULES = ("coxembed", "coxembed.words", "coxembed.presentations", "coxembed.schreier",
           "coxembed.tietze", "coxembed.verify", "coxembed.cli")


def mappings_tried(p, q, result) -> int:
    """Candidates ``match_presentations`` examined, from its result.

    0 when the rank or relator-length precheck rejects; the full n!*2^n
    when no match exists; else the rank of the returned (permutation,
    signs) in the search order (permutations lexicographic, then sign
    vectors with +1 before -1) plus one."""
    n = p.rank
    if n != q.rank or sorted(map(len, p.relators)) != sorted(map(len, q.relators)):
        return 0
    if result is None:
        return math.factorial(n) * 2**n
    perm = [idx for idx, _ in result]
    perm_rank = 0
    for i, v in enumerate(perm):
        perm_rank += sum(1 for u in perm[i + 1:] if u < v) * math.factorial(n - 1 - i)
    sign_rank = sum(1 << (n - 1 - g) for g, (_, sign) in enumerate(result) if sign == -1)
    return perm_rank * 2**n + sign_rank + 1


def _counters(layer: str, args, result):
    """(span name suffix, {counter: value}) for one returned call."""
    if layer == "schreier.raw_kernel":
        pres = result.presentation
        return "", {"symbols": pres.rank, "relators": len(pres.relators)}
    if layer == "schreier.evaluated_kernel":
        return "", {"symbols": result.presentation.rank}
    if layer == "tietze.simplify":
        pres, trace = result
        return "", {
            "eliminations": sum(1 for s in trace.steps if s[0] == "eliminate"),
            "bounded_calls": int(trace.bounded),
            "gens_out": pres.rank,
        }
    if layer == "verify.todd_coxeter":
        if result.status == "complete":
            return ".complete", {"cosets_defined": result.num_defined, "cosets_live": result.num_cosets}
        return ".exhausted", {"cosets_defined": result.num_defined}
    if layer == "verify.abelianization":
        pres = args[0]
        return "", {"matrix_cells": len(pres.relators) * pres.rank}
    if layer == "verify.match":
        p, q = args[0], args[1]
        return "", {"mappings_tried": mappings_tried(p, q, result), "found": int(result is not None)}
    return "", {}


class Tracer:
    def __init__(self):
        self.op = "setup"
        self.spans: List[tuple] = []  # (name, start, end, parent, op, child_time)
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []  # open spans: [index, name, start, child_time]
        self._depth: Dict[str, int] = defaultdict(int)
        self._patched: List[tuple] = []
        self._modules: Dict[str, object] = {}

    # -- installation ---------------------------------------------------

    def install(self, modules: Dict[str, object] | None = None) -> None:
        """Wrap every layer function in the given ``{name: module}`` map;
        with no map, in the one installed last."""
        if modules is None:
            modules = self._modules
        self._modules = modules
        targets = [(layer, mod, fn) for layer, fns in LAYERS.items() for mod, fn in fns]
        targets += [("words.free_reduce", "words", "free_reduce"), ("words.relator_nf", "words", "relator_nf")]
        for layer, modname, fn in targets:
            home = modules.get(f"coxembed.{modname}")
            if home is None:
                continue
            orig = getattr(home, fn)
            if layer == "words.free_reduce":
                wrapper = self._counted(orig)
            elif layer == "words.relator_nf":
                wrapper = self._timed_leaf(orig)
            else:
                wrapper = self._spanned(layer, orig)
            for mod in filter(None, map(modules.get, MODULES)):
                if mod.__dict__.get(fn) is orig:
                    setattr(mod, fn, wrapper)
                    self._patched.append((mod, fn, orig))

    def uninstall(self) -> None:
        for mod, fn, orig in reversed(self._patched):
            setattr(mod, fn, orig)
        self._patched.clear()

    # -- wrappers -------------------------------------------------------

    def _counted(self, orig):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters["words.free_reduce.calls"] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _timed_leaf(self, orig):
        counters, stack, clock = self.counters, self._stack, _CLOCK

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = orig(*args, **kwargs)
            dt = clock() - t0
            counters["words.relator_nf.calls"] += 1
            counters["words.relator_nf.busy_s"] += dt
            if stack:
                stack[-1][3] += dt
            return result

        return wrapper

    def _spanned(self, layer: str, orig):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), layer, _CLOCK(), 0.0]
            self.spans.append(None)  # reserve the slot so children see their parent's index
            self._stack.append(frame)
            self._depth[layer] += 1
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self._close(frame, layer, parent)
                raise
            self._close(frame, layer + self._count(layer, args, result), parent)
            return result

        return wrapper

    def _close(self, frame, name: str, parent: int) -> None:
        end = _CLOCK()
        index, layer, start, child = frame
        self._stack.pop()
        self._depth[layer] -= 1
        duration = end - start
        self.spans[index] = (name, start, end, parent, self.op, child)
        if self._stack:
            self._stack[-1][3] += duration
        if self._depth[layer] == 0:
            self.counters[name + ".busy_s"] += duration
        self.counters[name + ".self_s"] += duration - child

    def _count(self, layer, args, result) -> str:
        suffix, values = _counters(layer, args, result)
        name = layer + suffix
        self.counters[name + ".calls"] += 1
        for key, value in values.items():
            self.counters[f"{name}.{key}"] += value
        return suffix

    # -- output ---------------------------------------------------------

    def deterministic_counters(self) -> Dict[str, float]:
        """Every counter that is not a time."""
        return {k: v for k, v in self.counters.items() if not k.endswith("_s")}

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, child) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "self_s": end - start - child,
                }) + "\n")
