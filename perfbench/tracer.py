"""Spans around calls into treesum's public functions, recorded from outside.

The tracer wraps each traced function and rebinds the wrapper under every
name the package holds it by: ``scenario``, ``constructions`` and ``oracle``
import these names with ``from .x import name``, so patching only the
defining module would miss most calls.  A span is
``(name, start, end, parent, counts)``, kept in memory; ``parent`` is the
index of the enclosing span or -1.  Self time is a span's duration minus the
durations of its direct children (calls are nested and single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("bits", "trees", "covers", "kseq", "oracle", "constructions",
           "scenario", "cli")

# the thirteen operations of ``treesum list-ops``
OPS = (
    "build_splitting_e", "build_splitting_meager", "build_splitting_null",
    "shrink_mn", "shrink_perfect_e", "shrink_perfect_meager",
    "shrink_perfect_null", "shrink_perfect_small", "shrink_silver_e",
    "shrink_silver_meager", "shrink_silver_null", "shrink_silver_small",
    "simplify_e_cover",
)


def _len_result(args, kwargs, out):
    return {"words": len(out)}


def _pattern_sum(args, kwargs, out):
    J, K = args
    return {"pairs": len(J) * len(K), "out_words": len(out)}


def _leaves_arg(args, kwargs, out):
    return {"leaves": len(args[0].leaves)}


def _leaves_result(args, kwargs, out):
    return {"leaves": len(out.leaves)}


def _checks(args, kwargs, out):
    return {"checks": len(out.checks)}


def _out_words(args, kwargs, out):
    return {"out_words": len(out)}


# (module, attribute, span name, counter) for each traced function
FUNCTIONS = (
    ("bits", "pattern_sum", "bits.pattern_sum", _pattern_sum),
    ("bits", "block_product", "bits.block_product", _len_result),
    ("trees", "classify", "trees.classify", _leaves_arg),
    ("trees", "tree_restrict", "trees.tree_restrict", None),
    ("trees", "silver_to_prefix", "trees.silver_to_prefix", _leaves_result),
    ("kseq", "build_kseq", "kseq.build_kseq", None),
    ("oracle", "pattern_nfold", "oracle.pattern_nfold", None),
    ("oracle", "certify_request", "oracle.certify_request", _checks),
    ("oracle", "nfold_body_sum", "oracle.nfold_body_sum", _out_words),
    ("oracle", "exhaustive_containment", "oracle.exhaustive_containment", None),
    ("scenario", "parse_scenario", "scenario.parse_scenario", None),
    ("scenario", "run", "scenario.run", None),
    ("scenario", "render_report", "scenario.render_report", None),
) + tuple(("constructions", op, f"constructions.{op}", None) for op in OPS)

# methods, patched on their class: (module, class, method, span name, counter)
METHODS = (
    ("covers", "MeagerCover", "allowed", "covers.allowed", _len_result),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, time.perf_counter(), parent, None)
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent,
                          count(args, kwargs, out) if count else None)
            return out

        return traced

    def install(self) -> None:
        """Rebind every traced function in every treesum module holding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("treesum")
        mods = [pkg] + [importlib.import_module(f"treesum.{m}") for m in MODULES]
        listed = tuple(importlib.import_module("treesum.scenario").list_ops())
        if listed != OPS:
            raise RuntimeError(f"treesum list-ops gives {listed}, traced ops are {OPS}")
        for home, attr, name, count in FUNCTIONS:
            original = getattr(importlib.import_module(f"treesum.{home}"), attr)
            wrapper = self._wrap(name, original, count)
            bound = 0
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"treesum.{home}.{attr} not found")
        for home, cls_name, attr, name, count in METHODS:
            cls = getattr(importlib.import_module(f"treesum.{home}"), cls_name)
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def take(self) -> list:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def span_names() -> tuple[str, ...]:
    return tuple(f[2] for f in FUNCTIONS) + tuple(m[3] for m in METHODS)


def aggregate(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, and the summed counters."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, counts) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        for key, value in (counts or {}).items():
            row[key] += value
    return out
