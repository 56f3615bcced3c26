"""The benchmark's workloads and the output checks applied to every operation.

Each workload is a closed loop of independent seeded operations run one after
another in one process. Operation ``i`` of a run with workload seed ``seed``
uses ``analysis.derive_seed(seed, i)``, the derivation ``run_experiment``
uses, so any operation can be replayed from the recorded seed.

Every result is checked against a reference that does not share code with
the numpy kernels: TPS is re-scored with the scalar ``payoff.cell_total_payoff``
sum, a "stable" CA state is stepped once more with the reference
``ca.micro_step``, and the exact workload is compared with known optima.

The library is reached through module attributes (``ga.run_ga``, ...) so that
the traced run can swap them for timing wrappers and a test can swap them for
a corrupting wrapper; ``src/`` itself is never modified.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wealthca import analysis, ca, ga, grid, payoff, render, templates

#: Seed of the untimed warm-up operation. Timed operations use
#: derive_seed(seed, i); a fixed warm-up seed keeps set-up work identical
#: across runs.
WARMUP_SEED = 0x5EED_0F_BE_4C


@dataclass(frozen=True)
class Outcome:
    """Verdict on one operation.

    status is "ok", "miss" (a target-stopped run ended without reaching its
    target), "wrong" (a result differs from its reference) or "error" (the
    operation raised). w is the operation's best wealth; fingerprint lets a
    replay show that it reproduced the same result.
    """

    status: str
    w: float = 0.0
    fingerprint: tuple = ()
    detail: str = ""


def scalar_tps(p: grid.Pattern, params=payoff.DEFAULT_PARAMS) -> float:
    """Reference TPS: the per-cell scalar payoff summed over the torus."""
    return sum(payoff.cell_total_payoff(p, grid.Coord(i, j), params)
               for i in range(p.n) for j in range(p.n))


def _wrong(detail: str, w: float = 0.0, fingerprint: tuple = ()) -> Outcome:
    return Outcome("wrong", w, fingerprint, detail)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class GaWorkload:
    """run_ga with default settings, stopped at a known optimum TPS."""

    root = "ga.run_ga"
    cycle = 1

    def __init__(self, n: int = 6, target: float = 387.0):
        self.n, self.target = n, target

    def setup(self) -> dict[str, float]:
        timings = {}
        _, timings["grid.window_indices.s"] = _timed(grid.window_indices,
                                                     self.n)
        _, timings["templates.builtin_set.s"] = _timed(templates.builtin_set,
                                                       52)
        self.run(0, WARMUP_SEED)
        return timings

    def run(self, i: int, seed: int):
        cfg = ga.GaConfig(target_fitness=self.target, seed=seed)
        return ga.run_ga(cfg, self.n)

    def check(self, i: int, seed: int, res) -> Outcome:
        k = payoff.DEFAULT_PARAMS.k
        w = res.best_fitness / (k * self.n * self.n)
        fp = (res.best_fitness, res.iterations)
        for sol in res.solutions:
            ref = scalar_tps(sol.pattern)
            if sol.fitness != ref:
                return _wrong(f"fitness {sol.fitness} != scalar {ref}", w, fp)
        if res.best_fitness != max(s.fitness for s in res.solutions):
            return _wrong("best_fitness is not the population maximum", w, fp)
        if res.best_fitness < self.target:
            if res.iterations < ga.GaConfig().max_iterations:
                return _wrong("stopped early below the target", w, fp)
            return Outcome("miss", w, fp,
                           f"best {res.best_fitness} < {self.target} after "
                           f"{res.iterations} iterations")
        return Outcome("ok", w, fp)


class CaWorkload:
    """run_ca with a built-in rule from a seeded random start."""

    root = "ca.run_ca"
    cycle = 1

    def __init__(self, rule: int, n: int, t_limit: int,
                 target: float | None = None):
        self.rule, self.n, self.t_limit, self.target = rule, n, t_limit, target

    def _cfg(self, seed: int) -> ca.CaConfig:
        return ca.CaConfig(templates=templates.builtin_set(self.rule),
                           t_limit=self.t_limit, seed=seed,
                           target_tps=self.target)

    def setup(self) -> dict[str, float]:
        timings = {}
        ts, timings["templates.builtin_set.s"] = _timed(templates.builtin_set,
                                                        self.rule)
        _, timings["grid.window_indices.s"] = _timed(grid.window_indices,
                                                     self.n)
        ca._hit_table(ts)
        self.run(0, WARMUP_SEED)
        return timings

    def run(self, i: int, seed: int):
        return ca.run_ca(self._cfg(seed), n=self.n)

    def check(self, i: int, seed: int, res) -> Outcome:
        n2 = self.n * self.n
        k = payoff.DEFAULT_PARAMS.k
        fp = (res.tps_final, res.w_max, res.t_max, res.generations,
              res.stable)
        w = res.w_max
        ref = scalar_tps(res.final)
        last = res.trace[-1]
        if res.tps_final != ref or last.tps != ref:
            return _wrong(f"tps_final {res.tps_final} != scalar {ref}", w, fp)
        if last.wealth != ref / (k * n2):
            return _wrong(f"final wealth {last.wealth} != {ref / (k * n2)}",
                          w, fp)
        best = max(row.wealth for row in res.trace)
        if res.w_max != best or res.w_max < last.wealth:
            return _wrong(f"w_max {res.w_max} != trace maximum {best}", w, fp)
        if res.stable:
            cfg = self._cfg(seed)
            state = ca.CaState(n=self.n, cells=list(res.final.cells),
                               hits=[0] * n2)
            rng = random.Random(seed + 1)
            for _ in range(n2):
                ca.micro_step(state, cfg, rng)
            if tuple(state.cells) != res.final.cells:
                return _wrong("reported stable but changed under one more "
                              "generation", w, fp)
        if self.target is not None and res.tps_final < self.target:
            if res.generations < self.t_limit and not res.stable:
                return _wrong("stopped early below the target", w, fp)
            return Outcome("miss", w, fp,
                           f"tps {res.tps_final} < {self.target} after "
                           f"{res.generations} generations "
                           f"(stable={res.stable})")
        return Outcome("ok", w, fp)


# Criterion-1 table: n -> (TPS, dominoes, points, ones).
_CRITERION1 = {
    5: (265, 4, 0, 8),
    7: (522, 6, 3, 15),
    9: (865, 8, 8, 24),
    11: (1294, 10, 15, 35),
    13: (1809, 12, 24, 48),
    15: (2410, 14, 35, 63),
}
# Exhaustive optima: n -> (max TPS, raw argmax count).
_ORACLE = {3: (91.0, 36), 4: (172.0, 12)}


class ExactWorkload:
    """Exact oracles, then closed-form optima with their analyses.

    One cycle is brute_force_oracle for each size in oracle_ns followed by one
    operation per odd n in 5..max_n. A sweep operation builds the optimum,
    moves it by a seeded symmetry and cyclic shift (every checked quantity is
    invariant under both), then scores, analyses, extracts and renders it.
    Runs stop only at cycle boundaries, so every run times the same mix.
    """

    root = "exact.op"

    def __init__(self, out_dir: Path, max_n: int = 99,
                 oracle_ns: tuple[int, ...] = (3, 4)):
        self.ops = [("oracle", n) for n in oracle_ns] + [
            ("sweep", n) for n in range(5, max_n + 1, 2)]
        self.cycle = len(self.ops)
        self.out_dir = out_dir
        self.full = None

    def setup(self) -> dict[str, float]:
        timings = {}
        self.full, timings["templates.builtin_set.s"] = _timed(
            templates.builtin_set, 52)
        t0 = time.perf_counter()
        for _, n in self.ops:
            grid.window_indices(n)
        timings["grid.window_indices.s"] = time.perf_counter() - t0
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for kind in ("oracle", "sweep"):
            first = next(i for i, op in enumerate(self.ops) if op[0] == kind)
            self.run(first, WARMUP_SEED)
        return timings

    def run(self, i: int, seed: int):
        kind, n = self.ops[i % self.cycle]
        if kind == "oracle":
            return analysis.brute_force_oracle(n)
        rng = random.Random(seed)
        p = analysis.construct_optimal_odd(n)
        p = grid.transform(p, rng.choice(grid.SYMMETRY_OPS))
        p = grid.transform(p, "shift", rng.randrange(n), rng.randrange(n))
        path = self.out_dir / f"optimum_{n}.ppm"
        render.write_ppm(path, p, quad=True, mark_singularities=True)
        return (p, payoff.tps(p), analysis.structure_report(p),
                analysis.detect_singularities(p),
                templates.extract_templates(p), path)

    def check(self, i: int, seed: int, res) -> Outcome:
        kind, n = self.ops[i % self.cycle]
        k = payoff.DEFAULT_PARAMS.k
        if kind == "oracle":
            want_tps, want_count = _ORACLE[n]
            w = res.max_tps / (k * n * n)
            fp = (res.max_tps, res.n_optima, len(res.representatives))
            if (res.max_tps, res.n_optima) != (want_tps, want_count):
                return _wrong(f"oracle n={n}: {res.max_tps}/{res.n_optima} "
                              f"!= {want_tps}/{want_count}", w, fp)
            for rep in res.representatives:
                if scalar_tps(rep) != want_tps:
                    return _wrong(f"oracle n={n} representative scores "
                                  f"{scalar_tps(rep)}", w, fp)
            return Outcome("ok", w, fp)

        p, total, rep, sings, ts, path = res
        w = total / (k * n * n)
        fp = (total, rep.points, rep.dominoes, rep.singularities, rep.ones,
              len(sings), len(ts))
        want = analysis.tps_formula_odd(n)
        points, dominoes = (analysis.n_point_formula(n),
                            analysis.n_domino_formula(n))
        ones = ((n + 1) // 2) ** 2 - 1
        if n in _CRITERION1:
            table = _CRITERION1[n]
            if table[0] != want:
                return _wrong(f"n={n}: formula {want} != table {table[0]}",
                              w, fp)
            _, dominoes, points, ones = table
        if total != want or scalar_tps(p) != want:
            return _wrong(f"n={n}: tps {total} != formula {want}", w, fp)
        want_rep = (points, dominoes, 1, ones, n * n - ones)
        got_rep = (rep.points, rep.dominoes, rep.singularities, rep.ones,
                   rep.zero_cells)
        if got_rep != want_rep or rep.ones != p.ones:
            return _wrong(f"n={n}: structure {got_rep} != {want_rep}", w, fp)
        if len(sings) != 1:
            return _wrong(f"n={n}: {len(sings)} singularities", w, fp)
        values = ts.values_set()
        if not values <= self.full.values_set() or any(
                img.values not in values for t in ts
                for img in templates.symmetry_orbit(t)):
            return _wrong(f"n={n}: extracted templates are not a "
                          "symmetry-closed subset of rule 52", w, fp)
        data = path.read_bytes()
        header = f"P6\n{2 * n} {2 * n}\n255\n".encode("ascii")
        pixels = np.frombuffer(data[len(header):], dtype=np.uint8)
        pixels = pixels.reshape(-1, 3)
        black = int((pixels == 0).all(axis=1).sum())
        red = int((pixels == (255, 0, 0)).all(axis=1).sum())
        if (not data.startswith(header) or len(pixels) != 4 * n * n
                or black != 4 * p.ones or red != 16):
            return _wrong(f"n={n}: image has {black} black / {red} red "
                          "pixels", w, fp)
        return Outcome("ok", w, fp)


def make(name: str, out_dir: Path):
    """The full-size workload of that name."""
    if name == "ga-n6":
        return GaWorkload()
    if name == "ca-rule8-n10":
        return CaWorkload(rule=8, n=10, t_limit=5000, target=1075.0)
    if name == "ca-rule52-n99":
        return CaWorkload(rule=52, n=99, t_limit=20)
    if name == "exact":
        return ExactWorkload(out_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("ga-n6", "ca-rule8-n10", "ca-rule52-n99", "exact")
