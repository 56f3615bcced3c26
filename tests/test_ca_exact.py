"""Exact-chain gate for the CA steppers.

At n = 4 the CA is a Markov chain on 2^16 states. Its micro-step matrix is
built here from _hit_table, pi_01 and pi_10 alone, and the exact law of G,
the number of generations until is_stable, follows from a Bernoulli(0.25)
start by n^2 matrix-vector products per generation (stable states are
absorbing, so P(G > g) is the mass off them after g generations). Both
steppers must match it: run_ca as it is (generation, which skips the null
micro-steps) and run_ca over a reference generation of n^2 micro_step calls.
Rules 8 and 52 run with the default noise; rule 52 also runs with noise
rates that put 1, pi_10 and pi_01 in three different buckets, so that the
choice between buckets is weighted by rate.

The design is fixed: 2000 runs per case and stepper, run i seeded with
derive_seed(2025, i), and each check (a z-test of the mean and a chi-square
test of the distribution) at alpha = 0.001.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import stats

from wealthca import ca
from wealthca.analysis import derive_seed
from wealthca.ca import CaConfig, _hit_table, micro_step, run_ca
from wealthca.grid import WINDOW_WEIGHTS, window_indices
from wealthca.templates import builtin_set

N = 4
DENSITY = 0.25
RUNS = 2000
BASE_SEED = 2025
ALPHA = 0.001
T_LIMIT = 10_000  # P(G > T_LIMIT) is far below double precision

CASES = [(8, 0.04, 1.0), (52, 0.04, 1.0), (52, 0.3, 0.5)]
# exact means of the same chain, computed independently (ROADMAP item 4)
EXACT_MEANS = {8: 3.0565, 52: 3.0411}


def config(rule: int, pi_01: float, pi_10: float) -> CaConfig:
    return CaConfig(builtin_set(rule), pi_01=pi_01, pi_10=pi_10,
                    init_density=DENSITY, t_limit=T_LIMIT)


@lru_cache(maxsize=None)
def exact_tail(case: tuple[int, float, float]) -> np.ndarray:
    """P(G > g) for g = 0, 1, ... until it falls below 1e-13."""
    cfg = config(*case)
    area = N * N
    states = np.arange(1 << area, dtype=np.int64)
    bits = (states[:, None] >> np.arange(area)) & 1
    codes = bits[:, window_indices(N)] @ np.array(WINDOW_WEIGHTS)
    match_centers = _hit_table(cfg.templates)
    rate = np.empty(512)
    for code, centers in enumerate(match_centers):
        a = code >> 8
        if centers:
            rate[code] = sum(c != a for c in centers) / len(centers)
        else:
            rate[code] = cfg.pi_10 if a else cfg.pi_01
    step = rate[codes] / area  # (state, cell): chance that cell flips next
    flips = states[:, None] ^ (1 << np.arange(area))
    matrix = sp.csr_matrix((step.ravel(), (np.repeat(states, area),
                                           flips.ravel())),
                           shape=(states.size, states.size))
    matrix = (matrix + sp.diags(1.0 - step.sum(axis=1))).T.tocsr()
    # absorbing codes: the ring matches, and only templates with the center
    absorbing = np.array([set(centers) == {code >> 8}
                          for code, centers in enumerate(match_centers)])
    stable = absorbing[codes].all(axis=1)
    ones = bits.sum(axis=1)
    dist = DENSITY ** ones * (1 - DENSITY) ** (area - ones)
    tail = [dist[~stable].sum()]
    while tail[-1] > 1e-13:
        for _ in range(area):
            dist = matrix @ dist
        tail.append(dist[~stable].sum())
    return np.array(tail)


def reference_generation(state, cfg, rng):
    changed = False
    for _ in range(state.n * state.n):
        changed |= micro_step(state, cfg, rng)
    state.t += 1
    return changed


def sample(case: tuple[int, float, float]) -> np.ndarray:
    cfg = config(*case)
    runs = [run_ca(dataclasses.replace(cfg, seed=derive_seed(BASE_SEED, i)),
                   n=N) for i in range(RUNS)]
    assert all(res.stop_reason == "stable" for res in runs)
    return np.array([res.generations for res in runs])


def pooled_bins(tail: np.ndarray) -> list[tuple[int, int, float]]:
    """(lo, hi, P(lo <= G < hi)) bins of expected count >= 5, in order;
    the last bin is open (hi = -1)."""
    pmf = -np.diff(np.append(1.0, tail))
    bins, lo, mass = [], 0, 0.0
    for g, p in enumerate(pmf):
        mass += p
        if mass * RUNS >= 5 and tail[g] * RUNS >= 5:
            bins.append((lo, g + 1, mass))
            lo, mass = g + 1, 0.0
    bins.append((lo, -1, tail[lo - 1] if lo else 1.0))
    return bins


@pytest.mark.parametrize("rule", sorted(EXACT_MEANS))
def test_exact_mean_of_the_chain(rule):
    assert exact_tail((rule, 0.04, 1.0)).sum() == pytest.approx(
        EXACT_MEANS[rule], abs=1e-4)


@pytest.mark.parametrize("stepper", ["generation", "micro_step"])
@pytest.mark.parametrize("case", CASES, ids=str)
def test_generations_to_stable_follow_the_exact_law(case, stepper,
                                                    monkeypatch):
    if stepper == "micro_step":
        monkeypatch.setattr(ca, "generation", reference_generation)
    tail = exact_tail(case)
    mean = tail.sum()
    var = (2 * np.arange(tail.size) + 1) @ tail - mean ** 2
    g = sample(case)

    z = (g.mean() - mean) / np.sqrt(var / RUNS)
    assert abs(z) < stats.norm.ppf(1 - ALPHA / 2), (
        f"mean {g.mean():.4f} vs exact {mean:.4f} (z = {z:.2f})")

    bins = pooled_bins(tail)
    observed = [((g >= lo) & ((g < hi) if hi >= 0 else True)).sum()
                for lo, hi, _ in bins]
    expected = [RUNS * p for _, _, p in bins]
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert chi2 < stats.chi2.ppf(1 - ALPHA, len(bins) - 1), (
        f"chi2 {chi2:.1f} over {len(bins)} bins: {observed} vs "
        f"{np.round(expected, 1).tolist()}")
