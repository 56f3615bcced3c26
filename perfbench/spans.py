"""Span tracing for the traced benchmark run.

In the traced process only, install() replaces public functions of the
wealthca modules with timing wrappers by swapping module (or class)
attributes; restore() puts the originals back. Each wrapped call records a
span (name, start, end, parent span, operation index) in flat arrays kept in
memory and written out once, when the run ends. A layer's self time is its
spans' duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import operator
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from wealthca import analysis, ca, ga, render, templates

TPS = "payoff.tps_of_bits"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.current_op = -1
        self.counters: Counter = Counter()
        self._swapped: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _swap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._swapped.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def _span(self, owner, attr: str, name: str) -> None:
        self._swap(owner, attr, lambda fn: lambda *a, **k: self.call(
            name, fn, *a, **k))

    def install(self) -> None:
        """Swap every traced library attribute for its timing wrapper."""
        # ga and ca bind tps_of_bits in their own namespaces.
        self._span(ga, "tps_of_bits", TPS)
        self._span(ca, "tps_of_bits", TPS)
        self._span(ga, "ga_step", "ga.ga_step")
        self._span(ga.Population, "replace", "ga.Population.replace")
        self._span(ca, "is_stable", "ca.is_stable")
        self._span(analysis, "structure_report", "analysis.structure_report")
        self._span(analysis, "construct_optimal_odd",
                   "analysis.construct_optimal_odd")
        # structure_report and render.ppm_bytes both call it.
        self._span(analysis, "detect_singularities",
                   "analysis.detect_singularities")
        self._span(render, "detect_singularities",
                   "analysis.detect_singularities")
        self._span(templates, "extract_templates",
                   "templates.extract_templates")

        def contains_bits(fn):
            def wrapper(pop, row):
                found = self.call("ga.Population.contains_bits", fn, pop, row)
                self.counters["ga.dup_rejects"] += found
                return found
            return wrapper

        def generation(fn):
            def wrapper(state, cfg, rng):
                before = list(state.cells)
                changed = self.call("ca.generation", fn, state, cfg, rng)
                self.counters["ca.micro_steps"] += state.n * state.n
                self.counters["ca.changed_gens"] += changed
                self.counters["ca.flips"] += sum(
                    map(operator.ne, before, state.cells))
                return changed
            return wrapper

        def oracle(fn):
            def wrapper(n, *args, **kwargs):
                return self.call(f"analysis.brute_force_oracle.n{n}", fn, n,
                                 *args, **kwargs)
            return wrapper

        def write_ppm(fn):
            def wrapper(path, *args, **kwargs):
                self.call("render.write_ppm", fn, path, *args, **kwargs)
                self.counters["render.bytes"] += os.path.getsize(path)
            return wrapper

        self._swap(ga.Population, "contains_bits", contains_bits)
        self._swap(ca, "generation", generation)
        self._swap(analysis, "brute_force_oracle", oracle)
        self._swap(render, "write_ppm", write_ppm)

    def restore(self) -> None:
        while self._swapped:
            owner, attr, original = self._swapped.pop()
            setattr(owner, attr, original)

    def save(self, path, **meta) -> None:
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            meta=np.array(repr(meta)))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and useful-work ratios."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child],
                                   minlength=len(dur))
        parent_name = np.where(child, name[np.maximum(parent, 0)], -1)

        def mask(span, under=None):
            m = name == self._ids.get(span, -2)
            if under is not None:
                m &= parent_name == self._ids.get(under, -2)
            return m

        def calls(span, under=None):
            return int(mask(span, under).sum())

        def total(span, under=None):
            return float(dur[mask(span, under)].sum())

        def self_s(span):
            return float(self_t[mask(span)].sum())

        def per_call(span):
            return total(span) / calls(span) if calls(span) else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counters
        evals = calls(TPS, under="ga.ga_step")
        return {
            f"{TPS}.calls": calls(TPS),
            f"{TPS}.self_s": self_s(TPS),
            f"{TPS}.us_per_call": 1e6 * ratio(self_s(TPS), calls(TPS)),
            "ga.ga_step.calls": calls("ga.ga_step"),
            "ga.ga_step.self_s": self_s("ga.ga_step"),
            "ga.evals_per_s": ratio(
                calls(TPS, "ga.run_ga") + calls(TPS, "ga.ga_step"),
                total("ga.run_ga")),
            "ga.accept_ratio": ratio(calls("ga.Population.replace"), evals),
            "ga.dup_reject_ratio": ratio(c["ga.dup_rejects"], evals),
            "ca.generation.calls": calls("ca.generation"),
            "ca.generation.self_s": self_s("ca.generation"),
            "ca.micro_steps_per_s": ratio(c["ca.micro_steps"],
                                          total("ca.generation")),
            "ca.is_stable.calls": calls("ca.is_stable"),
            "ca.is_stable.self_s": self_s("ca.is_stable"),
            "ca.eval_share": ratio(
                total("ca.is_stable", "ca.run_ca") + total(TPS, "ca.run_ca"),
                total("ca.run_ca")),
            "ca.changed_gen_ratio": ratio(c["ca.changed_gens"],
                                          calls("ca.generation")),
            "ca.net_flip_ratio": ratio(c["ca.flips"], c["ca.micro_steps"]),
            "analysis.brute_force_oracle.n3_s": per_call(
                "analysis.brute_force_oracle.n3"),
            "analysis.brute_force_oracle.n4_s": per_call(
                "analysis.brute_force_oracle.n4"),
            "analysis.structure_report.self_s": self_s(
                "analysis.structure_report"),
            "analysis.detect_singularities.self_s": self_s(
                "analysis.detect_singularities"),
            "analysis.construct_optimal_odd.self_s": self_s(
                "analysis.construct_optimal_odd"),
            "templates.extract_templates.calls": calls(
                "templates.extract_templates"),
            "templates.extract_templates.self_s": self_s(
                "templates.extract_templates"),
            "render.write_ppm.self_s": self_s("render.write_ppm"),
            "render.write_ppm.bytes": c["render.bytes"],
            "trace.spans": len(dur),
        }
