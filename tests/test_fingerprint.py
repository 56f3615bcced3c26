"""Pins of the engines' results: one SHA-256 per engine over many runs.

A change to an engine that keeps its draws and its arithmetic must leave
its digest as it is, so a failure names the engine. The digests were
taken under Python 3.11.7 and numpy 2.4.6.

- CA: every CaRunResult field, trace included, and every observable of a
  run of micro_step calls. They rest only on random.Random's draws
  (random, randrange, choice), which have not changed across Python
  3.10-3.13, and on exact integer and float arithmetic.
- GA: every solution's cells and fitness, and the iteration count. It rests
  on numpy's Generator stream, which numpy does not promise to keep across
  versions (NEP 19), so a numpy upgrade may need a re-pin.
- Oracle: max TPS, the raw optimum count and each representative's cells.
- Window codes: Pattern.codes of seeded random patterns, and their other
  Pattern views (to_array, pack, rows, ones).
- Closed-form optima, odd n = 5..99: construct_optimal_odd's cells, one
  seeded symmetry and shift of each (grid.transform), and of that image
  the structure report, the singularities and the extracted templates
  (codes and labels, in order).
"""

import functools
import hashlib
import random

import pytest

from wealthca.analysis import (brute_force_oracle, construct_optimal_odd,
                               detect_singularities, structure_report)
from wealthca.ca import SELECTIONS, CaConfig, init_ca, micro_step, run_ca
from wealthca.ga import GaConfig, run_ga
from wealthca.grid import SYMMETRY_OPS, Pattern, pack, transform
from wealthca.payoff import DEFAULT_PARAMS, PayoffParams
from wealthca.templates import builtin_set, extract_templates


def _ambiguous_set():
    # the extracted n = 6 set of test_golden_random_runs: some outer rings
    # carry both centers, so micro-steps draw with rng.choice
    rng = random.Random(0)
    return extract_templates(Pattern(6, tuple(rng.randint(0, 1)
                                              for _ in range(36))))


def _configs():
    """(name, CaConfig) per template set and noise pair."""
    yield from ((f"rule{r}", CaConfig(builtin_set(r))) for r in (8, 36, 52))
    yield "optimal9", CaConfig(extract_templates(construct_optimal_odd(9)))
    yield "ambiguous6", CaConfig(_ambiguous_set(), pi_01=0.3, pi_10=0.5)


def _run_record(res) -> str:
    rows = tuple((r.t, r.tps, r.wealth, r.stable) for r in res.trace)
    return repr((res.final.n, res.final.cells, res.tps_final, res.w_max,
                 res.t_max, res.stable, res.generations, res.stop_reason,
                 res.changes, rows))


def _run_digest(selection: str) -> str:
    h = hashlib.sha256()
    for name, cfg in _configs():
        for n in range(3, 13):
            for seed in range(3):
                res = run_ca(CaConfig(cfg.templates, pi_01=cfg.pi_01,
                                      pi_10=cfg.pi_10, selection=selection,
                                      t_limit=20, seed=seed), n=n)
                h.update(f"{name} {n} {seed} {_run_record(res)}\n".encode())
    return h.hexdigest()


def _micro_step_digest(selection: str) -> str:
    h = hashlib.sha256()
    for name, cfg in _configs():
        cfg = CaConfig(cfg.templates, pi_01=cfg.pi_01, pi_10=cfg.pi_10,
                       selection=selection)
        rng = random.Random(7)
        state = init_ca(cfg, 7, rng)
        steps = [micro_step(state, cfg, rng) for _ in range(3000)]
        h.update(repr((name, steps, state.cells, state.cursor,
                       state.changes, rng.random())).encode())
    return h.hexdigest()


# per selection: every run_ca result for 5 configs, n = 3..12, seeds 0-2
RUN_DIGESTS = {
    "random":
        "472711499cf5a3630958e99f5e1b3c04c5cf9d64f1ff5e0dc9b15ccba1c468bc",
    "sequential":
        "70d5b4bfeb2d5289d4560533405f0eb65a8d039dfa73aeeea0091293a3a36f7b",
}
# per selection: 3000 micro_step calls at n = 7 for each of the 5 configs
MICRO_STEP_DIGESTS = {
    "random":
        "3db7fe203e1ecb03c024d8d8b8d4ee18123f4a299c9acf997fbcb2cc3f1e378f",
    "sequential":
        "369815a4f32c0c0e9f3db81cb366edc9eb9c27c7551152a763347d1527df6efa",
}


@pytest.mark.parametrize("selection", SELECTIONS)
def test_runs_are_pinned(selection):
    assert _run_digest(selection) == RUN_DIGESTS[selection]


@pytest.mark.parametrize("selection", SELECTIONS)
def test_micro_steps_are_pinned(selection):
    assert _micro_step_digest(selection) == MICRO_STEP_DIGESTS[selection]


def _ga_digest() -> str:
    h = hashlib.sha256()
    for n in range(3, 10):
        for seed in range(3):
            res = run_ga(GaConfig(max_iterations=30, seed=seed), n)
            # not repr(res): it hides solutions
            rows = tuple((s.pattern.cells, s.fitness) for s in res.solutions)
            h.update(f"{n} {seed} {res.iterations} {rows!r}\n".encode())
    return h.hexdigest()


def _oracle_digest() -> str:
    h = hashlib.sha256()
    for params in (DEFAULT_PARAMS,
                   PayoffParams(t=5.0, r=3.0, p=1.0, s=-2.0, self_play=False)):
        for n in (3, 4):
            res = brute_force_oracle(n, params)
            reps = tuple(p.cells for p in res.representatives)
            h.update(f"{params} {n} {res.max_tps!r} {res.n_optima} "
                     f"{reps!r}\n".encode())
    return h.hexdigest()


def _random_patterns():
    rng = random.Random(0)
    for n in range(3, 40):
        yield Pattern(n, tuple(rng.randint(0, 1) for _ in range(n * n)))


def _codes_digest() -> str:
    h = hashlib.sha256()
    for p in _random_patterns():
        h.update(f"{p.n} ".encode() + p.codes.tobytes())
    return h.hexdigest()


def _views_digest() -> str:
    h = hashlib.sha256()
    for p in _random_patterns():
        a = p.to_array()
        h.update(f"{p.n} {a.dtype} {a.shape} {a.flags.writeable} {pack(p)} "
                 f"{p.rows()} {p.ones} ".encode() + a.tobytes())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _optima_records() -> dict[str, tuple[str, ...]]:
    """Per part, one line per odd n = 5..99 of the closed-form sweep."""
    rng = random.Random(0)
    out = {part: [] for part in OPTIMA_DIGESTS}
    for n in range(5, 100, 2):
        p = construct_optimal_odd(n)
        q = transform(p, rng.choice(SYMMETRY_OPS))
        q = transform(q, "shift", rng.randrange(n), rng.randrange(n))
        ts = extract_templates(q)
        out["construct"].append(f"{n} {bytes(p.cells).hex()}")
        out["transform"].append(f"{n} {bytes(q.cells).hex()}")
        out["structure"].append(
            f"{n} {structure_report(q)} {detect_singularities(q)}")
        out["templates"].append(
            f"{n} {[(t.code, t.label) for t in ts]}")
    return {part: tuple(lines) for part, lines in out.items()}


# run_ga at n = 3..9, seeds 0-2, 30 iterations each
GA_DIGEST = (
    "18ccd9844d5def226b0dc2021d1c079ec5515c202e88cf0c511ed27abd6bc1d5")
# brute_force_oracle at n = 3 and 4 under two payoff sets
ORACLE_DIGEST = (
    "8ca3c4ab64b8570e4854a3648e7017d4ca05ee3d2e84d116faa88ac52cb81014")
# Pattern.codes of one seeded random pattern per n = 3..39
CODES_DIGEST = (
    "ffa37ef6dda6f95f61dcc992721255e549bab6c6040cc9b9305ba963a2eb9398")
# to_array, pack, rows() and ones of the same patterns
VIEWS_DIGEST = (
    "ba40b01cc46ea907c9b1a8246bbfed9dca3365f61e22b5880a2c760708822828")
# per part of the closed-form sweep at odd n = 5..99 (_optima_records)
OPTIMA_DIGESTS = {
    "construct":
        "073342a3509f9144732d0ee7a0d27b2634a90114aa2557f602b5e87b283b7513",
    "transform":
        "290bd7ce477a8d9fa58a0ef7152306145240c9cbe62529e1d44fc632079ef9b0",
    "structure":
        "6a272cceee7412ab1a47bcd8d56eb69a8f6cd02440f3f31cd634fdbcc7e5d438",
    "templates":
        "56786a03946b623afa64c141fb23b0529c1de630e065f6249ba286e827f611ae",
}


def test_ga_runs_are_pinned():
    assert _ga_digest() == GA_DIGEST


def test_oracle_is_pinned():
    assert _oracle_digest() == ORACLE_DIGEST


def test_window_codes_are_pinned():
    assert _codes_digest() == CODES_DIGEST


def test_pattern_views_are_pinned():
    assert _views_digest() == VIEWS_DIGEST


@pytest.mark.parametrize("part", OPTIMA_DIGESTS)
def test_closed_form_optima_are_pinned(part):
    lines = _optima_records()[part]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == OPTIMA_DIGESTS[part]
