"""Pins of the CA's random streams: one SHA-256 over many seeded runs.

A change to the CA engine that keeps its draws and its flips must leave
these digests as they are. Each digest covers every CaRunResult field,
trace included, or every observable of a run of micro_step calls. The
digests were taken under Python 3.11.7 and numpy 2.4.6; they rest only on
random.Random's draws (random, randrange, choice), which have not changed
across Python 3.10-3.13, and on exact integer and float arithmetic.
"""

import hashlib
import random

import pytest

from wealthca.analysis import construct_optimal_odd
from wealthca.ca import SELECTIONS, CaConfig, init_ca, micro_step, run_ca
from wealthca.grid import Pattern
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
