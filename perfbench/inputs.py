"""Seeded input generators owned by the benchmark.

Every input the program sees is made here from the workload seed with
NumPy alone, so a change to the program cannot change the load it is
measured with: the same seed gives byte-identical arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: Seed of the sensor layout and of the training history.  Both are
#: fixed so every workload seed forecasts with the same fitted and
#: decomposed model: the number of switch phases the decomposition needs
#: (16 or 32 on this data) sets the cost of an anneal, and letting it
#: vary with the seed would make run-to-run spread a property of the
#: seed rather than of the program.
HISTORY_SEED = 0


def traffic_series(
    num_sensors: int,
    train_frames: int,
    test_frames: int,
    seed: int,
    frames_per_day: int = 24,
) -> np.ndarray:
    """A road-sensor flow series of shape ``(train + test frames, sensors)``.

    Sensors sit in six spatial clusters and are linked to their nearest
    neighbours.  Each has a daily profile with morning and evening rush
    peaks; congestion shocks land on random sensors and diffuse along the
    links before fading.  The layout and the first ``train_frames`` come
    from :data:`HISTORY_SEED`; the shocks and noise of the following
    ``test_frames`` come from ``seed``.  Values are min-max scaled to
    ``[0, 1]`` with the range of the training frames.
    """
    rng = np.random.default_rng(HISTORY_SEED)
    centers = rng.uniform(0.15, 0.85, size=(6, 2))
    labels = rng.permutation(np.arange(num_sensors) % 6)
    pos = centers[labels] + rng.normal(0.0, 0.06, size=(num_sensors, 2))
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    near = np.argsort(dist, axis=1)[:, :4]
    links = np.zeros((num_sensors, num_sensors))
    links[np.repeat(np.arange(num_sensors), 4), near.ravel()] = 1.0
    links = np.maximum(links, links.T)
    diffuse = links / links.sum(axis=1, keepdims=True)
    gain = rng.uniform(0.5, 1.5, size=num_sensors)
    phase = rng.normal(0.0, 0.6, size=num_sensors)

    num_frames = train_frames + test_frames
    hour = (np.arange(num_frames) % frames_per_day) / frames_per_day
    daily = (
        0.3
        + 0.9 * np.exp(-((hour - 8 / 24) ** 2) / (2 * (1.5 / 24) ** 2))
        + 0.7 * np.exp(-((hour - 18 / 24) ** 2) / (2 * (2.0 / 24) ** 2))
    )
    series = np.empty((num_frames, num_sensors))
    congestion = np.zeros(num_sensors)
    for t in range(num_frames):
        if t == train_frames:
            rng = np.random.default_rng([seed, 1])
        base = gain * daily[t] * (1.0 + 0.15 * np.sin(2 * np.pi * hour[t] + phase))
        if rng.random() < 0.15:
            congestion[rng.integers(num_sensors)] += rng.uniform(0.5, 1.5)
        congestion = 0.85 * (0.6 * congestion + 0.4 * diffuse @ congestion)
        series[t] = base + congestion + rng.normal(0.0, 0.04, size=num_sensors)
    low, high = series[:train_frames].min(), series[:train_frames].max()
    return (series - low) / (high - low)


def convex_sparse_model(n: int, density: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric coupling ``J`` with ``density`` of its pairs set, and ``h``.

    ``h`` is strictly diagonally dominant (``-h_i`` exceeds row ``i``'s
    absolute coupling sum by 1), so the clamped system is convex and its
    fixed point is unique and inside the rails for inputs in ``[-1, 1]``.
    """
    rng = np.random.default_rng([seed, 2])
    num_pairs = n * (n - 1) // 2
    chosen = rng.choice(num_pairs, size=max(1, round(density * num_pairs)), replace=False)
    rows, cols = np.triu_indices(n, k=1)
    weights = rng.normal(0.0, 0.5, size=chosen.size)
    J = np.zeros((n, n))
    J[rows[chosen], cols[chosen]] = weights
    J[cols[chosen], rows[chosen]] = weights
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return J, h


def observed_sets(n: int, count: int, seed: int) -> list[np.ndarray]:
    """``count`` sorted observed-index sets of ``n // 2`` nodes each."""
    rng = np.random.default_rng([seed, 3])
    return [np.sort(rng.permutation(n)[: n // 2]) for _ in range(count)]


def clamp_values(shape: tuple[int, ...], seed: int, stream: int) -> np.ndarray:
    """Observed node values, uniform in ``[-0.8, 0.8]``."""
    return np.random.default_rng([seed, stream]).uniform(-0.8, 0.8, size=shape)


def arrival_offsets(count: int, rate_per_s: float, seed: int) -> np.ndarray:
    """Open-loop send times (seconds from start) of ``count`` requests.

    Arrivals are bursty: a two-state modulated Poisson process that spends
    runs of about 50 requests at 4x the mean rate and runs at half of it.
    Gaps are then scaled so the mean rate is exactly ``rate_per_s``, which
    makes the schedule span ``count / rate_per_s`` seconds for every seed.
    """
    rng = np.random.default_rng([seed, 4])
    gaps = np.empty(count)
    high = bool(rng.integers(2))
    i = 0
    while i < count:
        run = min(count - i, int(rng.geometric(1 / 50)))
        gaps[i : i + run] = rng.exponential(1.0 / (4.0 if high else 0.5), size=run)
        high = not high
        i += run
    gaps *= count / (rate_per_s * gaps.sum())
    return np.cumsum(gaps) - gaps[0]


@dataclass(frozen=True)
class Delta:
    """One set of edge edits: ``J[i, j] = J[j, i] = weight`` for each row."""

    edges: np.ndarray  # (m, 2) int
    weights: np.ndarray  # (m,)


def delta_sequence(
    J: np.ndarray, h: np.ndarray, count: int, edits: int, seed: int
) -> list[Delta]:
    """``count`` graph deltas of ``edits`` edge edits, valid in sequence.

    Each delta reweights two existing edges (sign flip or shrink), removes
    one and adds one new edge, so every edit changes a value.  A new edge
    is only added where both endpoints keep a diagonal-dominance margin of
    at least 0.5, so the model stays convex after every delta.
    """
    rng = np.random.default_rng([seed, 5])
    J = J.copy()
    n = J.shape[0]
    margin = -h - np.abs(J).sum(axis=1)
    # The current edges (i < j) and where each sits in the list, so an
    # existing edge is drawn in O(1) and a removal swaps in the last one.
    rows, cols = np.nonzero(np.triu(J, 1))
    present = list(zip(rows.tolist(), cols.tolist()))
    where = {edge: k for k, edge in enumerate(present)}
    out = []
    for _ in range(count):
        edges, weights = [], []
        touched: set[tuple[int, int]] = set()
        while len(edges) < edits:
            kind = len(edges) % 4
            if kind < 3:
                i, j = present[int(rng.integers(len(present)))]
                new = 0.0 if kind == 2 else float(J[i, j] * rng.uniform(-1.0, 0.9))
            else:
                i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
                new = float(rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0]))
                if J[i, j] != 0.0 or min(margin[i], margin[j]) - abs(new) < 0.5:
                    continue
            if (i, j) in touched or new == J[i, j]:
                continue
            touched.add((i, j))
            change = abs(new) - abs(J[i, j])
            margin[i] -= change
            margin[j] -= change
            if J[i, j] == 0.0:
                where[(i, j)] = len(present)
                present.append((i, j))
            elif new == 0.0:
                last = present.pop()
                if last != (i, j):
                    present[where[(i, j)]] = last
                    where[last] = where[(i, j)]
                del where[(i, j)]
            J[i, j] = J[j, i] = new
            edges.append((i, j))
            weights.append(new)
        out.append(Delta(np.asarray(edges, dtype=np.int64), np.asarray(weights)))
    return out


def apply_delta(J: np.ndarray, delta: Delta) -> None:
    """Mirror ``delta`` onto a dense symmetric ``J`` in place."""
    i, j = delta.edges[:, 0], delta.edges[:, 1]
    J[i, j] = delta.weights
    J[j, i] = delta.weights


def fixed_point(
    J: np.ndarray, h: np.ndarray, observed: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Exact clamped fixed point of ``dsigma/dt = J sigma + h * sigma``.

    Solves ``(J_ff + diag(h_f)) x_f = -J_fo x_o`` densely for every row of
    ``values`` (``(batch, len(observed))``); returns ``(batch, n_free)``
    with free nodes in ascending index order.
    """
    free = np.setdiff1d(np.arange(J.shape[0]), observed)
    A = J[np.ix_(free, free)] + np.diag(h[free])
    rhs = -J[np.ix_(free, observed)] @ np.atleast_2d(values).T
    return np.linalg.solve(A, rhs).T

