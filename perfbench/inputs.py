"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed.  Sizes, group shares
and model families are fixed, so run time does not depend on the seed;
only the drawn values do.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

POVERTY_LINE = 143080.0
INDEX_ROWS = 200_000
DECOMPOSE_ROWS = 100_000
REGION_COUNT = 16
SMALL_REGION_ROWS = 300

ZERO_SHARE = 0.03
BODY_SIGMA = 0.75
# Lognormal location per adult equivalent.  With 3% zeros, 143080 then
# sits near the 35th percentile of income per adult equivalent.
BODY_MU = math.log(POVERTY_LINE) + 0.44 * BODY_SIGMA
TAIL_SHARE = 0.05
TAIL_ALPHA = 2.5

SIMULATE_MODELS = ("exponential:1", "lognormal:0,0.8")
SIMULATE_WEIGHTS = "0.5,0.5"
SIMULATE_LINE = 1.0
SIMULATE_N = 2000
SIMULATE_REPS = 2000

POPULATION_LINE = 0.5
# Fixed laws: analytic run time jumps from seconds to minutes when these
# parameters move by a few percent (see CHANGES.md), so the seed only
# draws the benchmark's own check sample.
POPULATION_COMPONENTS = (("uniform:0,1", 0.3), ("exponential:1", 0.3),
                         ("lognormal:0,0.8", 0.4))
POPULATION_CHECK_SIZE = 1_000_000


def _households(rng: np.random.Generator, n: int,
                scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Household income in cents and adult-equivalence divisor in tenths.

    Divisors follow the OECD-modified scale, 1 + 0.5 per extra adult +
    0.3 per child, so they are exact in tenths.  Income per adult
    equivalent is lognormal with its top 5% replaced by a Pareto tail
    spliced at the body's 95th percentile; 3% of households earn zero.
    """
    adults = rng.choice(4, size=n, p=[0.3, 0.4, 0.2, 0.1]) + 1
    children = rng.choice(5, size=n, p=[0.4, 0.25, 0.2, 0.1, 0.05])
    tenths = 10 + 5 * (adults - 1) + 3 * children
    per_adult = rng.lognormal(BODY_MU, BODY_SIGMA, size=n)
    splice = math.exp(BODY_MU + BODY_SIGMA * NormalDist().inv_cdf(1.0 - TAIL_SHARE))
    tail = per_adult > splice
    per_adult[tail] = splice * (1.0 - rng.random(int(tail.sum()))) ** (-1.0 / TAIL_ALPHA)
    cents = np.rint(per_adult * scale * tenths * 10.0).astype(np.int64)
    cents[rng.random(n) < ZERO_SHARE] = 0
    return cents, tenths


def region_sizes(n: int) -> np.ndarray:
    """Sixteen unequal regions: fifteen with geometrically falling shares
    and one of SMALL_REGION_ROWS households."""
    shares = 0.82 ** np.arange(REGION_COUNT - 1)
    big = np.floor((n - SMALL_REGION_ROWS) * shares / shares.sum()).astype(np.int64)
    big[0] += n - SMALL_REGION_ROWS - int(big.sum())
    return np.concatenate([big, [SMALL_REGION_ROWS]])


def region_labels() -> list[str]:
    return [f"region-{k + 1:02d}" for k in range(REGION_COUNT)]


def survey_rows(seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(region index, income cents, adult-equivalence tenths) per household.

    Regions differ in income level by a fixed factor between 0.75 and 1.35,
    so the subgroup indices and the gap are not trivial.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    region = rng.permutation(np.repeat(np.arange(REGION_COUNT), region_sizes(n)))
    level = np.linspace(0.75, 1.35, REGION_COUNT)[(np.arange(REGION_COUNT) * 7) % REGION_COUNT]
    cents, tenths = _households(rng, n, level[region])
    return region, cents, tenths


def write_survey_csv(path: str, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Write a survey file: household_id, region, income, adult_equiv.

    Returns what the program should read from it: income per adult
    equivalent and the region label of each row."""
    region, cents, tenths = survey_rows(seed, n)
    labels = region_labels()
    lines = ["household_id,region,income,adult_equiv"]
    lines += [f"{i + 1},{labels[r]},{c // 100}.{c % 100:02d},{t // 10}.{t % 10}"
              for i, (r, c, t) in enumerate(zip(region.tolist(), cents.tolist(),
                                                tenths.tolist()))]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return (cents / 100.0) / (tenths / 10.0), np.array(labels)[region]
