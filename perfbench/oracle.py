"""Independent reference implementation used to check the program's outputs.

Written from the documented contracts (README and module docstrings), not by
importing netselect: the SplitMix64 recurrence and seed derivation, the
scenario draw order, the five scoring rules with mean-rank ties for msaw, and
the tie chaining of scores within 1e-9 with ties ordered by matrix index.
Scores are computed for a whole batch of matrices at once, in the same
elementwise arithmetic the rules define, so orders agree exactly.
"""

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1
TIE_TOLERANCE = 1e-9
METHODS = ("msaw", "saw", "wpm", "topsis", "ahp")
CRITERIA = ("Bandwidth", "Delay", "PLR", "Energy", "Cost")
BENEFIT = np.array([True, False, False, False, False])
PRESETS = {
    "voip": (0.047, 0.486, 0.371, 0.047, 0.047),
    "video": (0.458, 0.101, 0.302, 0.074, 0.063),
    "best_effort": (0.299, 0.146, 0.146, 0.108, 0.299),
}


def preset(name: str) -> np.ndarray:
    raw = np.asarray(PRESETS[name], dtype=float)
    return raw / float(raw.sum())


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def derive_seed(base: int, index: int) -> int:
    return _mix((base + (index + 1) * GAMMA) & MASK)


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK

    def next(self) -> int:
        self.state = (self.state + GAMMA) & MASK
        return _mix(self.state)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self.next() >> 11) * 2.0**-53)

    def randrange(self, n: int) -> int:
        limit = MASK + 1 - ((MASK + 1) % n)
        while True:
            draw = self.next()
            if draw < limit:
                return draw % n


def generate(scenario: dict, seed: int) -> tuple[list[str], np.ndarray]:
    """Labels and values of the matrix a scenario yields for a seed."""
    rng = SplitMix64(seed)
    split = float(scenario.get("uplink_fraction", 0.1))
    labels, rows = [], []
    for profile in scenario["profiles"]:
        coeffs = profile["energy_coeffs"]
        for k in range(scenario.get("instances_per_profile", 1)):
            draws = [
                rng.uniform(float(lo), float(hi))
                for lo, hi in (
                    profile["bandwidth_range"],
                    profile["delay_range"],
                    profile["plr_range"],
                )
            ]
            up, down = draws[0] * split, draws[0] * (1.0 - split)
            energy = (
                float(coeffs["uplink"]) * up
                + float(coeffs["downlink"]) * down
                + float(coeffs["baseline"])
            )
            labels.append(f"{profile['name']}-{k}")
            rows.append([*draws, energy, float(profile["cost_level"])])
    return labels, np.array(rows, dtype=float)


def batch_scores(method: str, values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Scores, shape (T, n), of a batch of matrices shaped (T, n, m)."""
    benefit = BENEFIT[None, None, :]
    if method == "msaw":
        from scipy.stats import rankdata  # imported here so that only the checks load scipy

        ranks = rankdata(np.where(benefit, -values, values), axis=1, method="average") - 1.0
        return ((values.shape[1] - ranks) * w[None, None, :]).sum(axis=2)
    if method in ("saw", "wpm"):
        normed = np.where(
            benefit,
            values / values.max(axis=1, keepdims=True),
            values.min(axis=1, keepdims=True) / values,
        )
        if method == "saw":
            return np.einsum("tnm,m->tn", normed, w)
        return np.prod(normed ** w[None, None, :], axis=2)
    if method == "topsis":
        weighted = values / np.sqrt((values * values).sum(axis=1, keepdims=True)) * w
        high, low = weighted.max(axis=1, keepdims=True), weighted.min(axis=1, keepdims=True)
        best, worst = np.where(benefit, high, low), np.where(benefit, low, high)
        d_best = np.sqrt(((weighted - best) ** 2).sum(axis=2))
        d_worst = np.sqrt(((weighted - worst) ** 2).sum(axis=2))
        total = d_best + d_worst
        return np.where(total > 0.0, d_worst / np.where(total > 0.0, total, 1.0), 0.5)
    if method == "ahp":
        adjusted = np.where(benefit, values, 1.0 / values)
        return np.einsum("tnm,m->tn", adjusted / adjusted.sum(axis=1, keepdims=True), w)
    raise ValueError(method)


def order_of(scores) -> list[int]:
    """Row indices best first: chained near-ties are ordered by row index."""
    scores = [float(s) for s in scores]
    by_score = sorted(range(len(scores)), key=lambda i: -scores[i])
    order, start = [], 0
    while start < len(by_score):
        stop = start
        while (
            stop + 1 < len(by_score)
            and scores[by_score[stop]] - scores[by_score[stop + 1]] <= TIE_TOLERANCE
        ):
            stop += 1
        order.extend(sorted(by_score[start : stop + 1]))
        start = stop + 1
    return order


def batch_orders(scores: np.ndarray) -> np.ndarray:
    """Rows of order_of for a (T, n) score batch; only near-tied rows go through order_of."""
    orders = np.argsort(-scores, axis=1, kind="stable")
    ranked = np.take_along_axis(scores, orders, axis=1)
    for t in np.nonzero((ranked[:, :-1] - ranked[:, 1:] <= TIE_TOLERANCE).any(axis=1))[0]:
        orders[t] = order_of(scores[t])
    return orders


def rank(labels, values: np.ndarray, w: np.ndarray):
    """Each method's order (labels best first) and scores (matrix order) for one matrix."""
    scores = {m: batch_scores(m, values[None], w)[0] for m in METHODS}
    return {m: [labels[i] for i in order_of(s)] for m, s in scores.items()}, scores


def mc_counts(scenario: dict, w: np.ndarray, base_seed: int, trials: int) -> dict[str, int]:
    """Per-method reversal counts of a seeded Monte-Carlo run with one random drop per trial."""
    full, reduced, removed = [], [], []
    for trial in range(trials):
        rng = SplitMix64(derive_seed(base_seed, trial))
        _, values = generate(scenario, rng.next())
        drop = rng.randrange(values.shape[0])
        full.append(values)
        reduced.append(np.delete(values, drop, axis=0))
        removed.append(drop)
    full, reduced, drop = np.array(full), np.array(reduced), np.array(removed)[:, None]
    counts = {}
    for method in METHODS:
        before = batch_orders(batch_scores(method, full, w))
        after = batch_orders(batch_scores(method, reduced, w))
        # Survivors keep their relative order; row i > drop moves up to i - 1.
        expected = before[before != drop].reshape(after.shape)
        expected -= expected > drop
        counts[method] = int((expected != after).any(axis=1).sum())
    return counts
