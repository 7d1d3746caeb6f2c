"""Differential tests of the batched Monte-Carlo path against its scalar references.

The vector SplitMix64 stream is checked against :class:`SplitMix64`, the
batched generator against :func:`generate_matrix`, the array scorers against
:func:`rank`, and :func:`monte_carlo_reversal` against the per-trial loop it
replaced, which is kept here verbatim as the reference. Stacks of grids are
laid out ``(n, m, T)``, the layout the scorers read.
"""

import numpy as np
import pytest

from netselect import (
    METHODS,
    CriterionSpec,
    DecisionMatrix,
    Direction,
    EnergyCoeffs,
    MatrixValidationError,
    RatProfile,
    ScenarioSpec,
    SplitMix64,
    TiePolicy,
    derive_seed,
    drop_alternative,
    duplicate_alternative,
    duplication_experiment,
    example_scenario,
    generate_matrix,
    monte_carlo_reversal,
    preset_weights,
    rank,
    reversal_experiment,
)
from netselect import analysis
from netselect.core import TIE_TOLERANCE, RankingResult, tie_order
from netselect.methods import (
    _column_positions,
    _grid_sum,
    _msaw_drop_scores,
    _score_msaw,
    scorer,
)
from netselect.rng import derive_seeds, randrange_first_draws, stream_uint64, unit_doubles
from netselect.scenario import generate_values

VOIP = preset_weights("voip")
GAMMA = 0x9E3779B97F4A7C15
EDGE_SEEDS = [0, 1, 2**63, 2**64 - 1, 2**64 - GAMMA, GAMMA]


def loop_monte_carlo(
    spec, weights, methods, trials, seed=None, tie=TiePolicy.MEAN_RANK, alpha=None
):
    """The per-trial Monte-Carlo loop the batched path replaced (reference).

    Each trial ranks the full and the reduced matrix with :func:`rank`, not
    through the leave-one-out engine that the batched path and
    :func:`reversal_experiment` share.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method required")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    base_seed = spec.seed if seed is None else seed
    counts = {m: 0 for m in methods}
    for trial in range(trials):
        trial_rng = SplitMix64(derive_seed(base_seed, trial))
        matrix = generate_matrix(spec.with_seed(trial_rng.next_uint64()))
        removed = matrix.alternatives[trial_rng.randrange(matrix.n_alternatives)]
        for method in methods:
            baseline = rank(matrix, weights, method, tie=tie, alpha=alpha).order
            reduced_matrix = drop_alternative(matrix, removed)
            reduced = rank(reduced_matrix, weights, method, tie=tie, alpha=alpha).order
            if reduced != tuple(label for label in baseline if label != removed):
                counts[method] += 1
    return counts


def profile(name, bw=(1.0, 60.0), delay=(10.0, 150.0), plr=(0.5, 8.0), cost=1.0):
    return RatProfile(name, bw, delay, plr, cost, EnergyCoeffs(2.0, 0.5, 1.0))


def degenerate_spec(instances=3):
    """Constant columns and equal rows, so column positions and scores tie."""
    return ScenarioSpec(
        (
            profile("A", bw=(5.0, 5.0), delay=(20.0, 20.0), plr=(1.0, 1.0)),
            profile("B", bw=(5.0, 5.0), delay=(20.0, 40.0), plr=(1.0, 1.0)),
            profile("C", bw=(2.0, 9.0), delay=(20.0, 20.0), plr=(1.0, 2.0), cost=0.5),
        ),
        instances_per_profile=instances,
    )


def random_weights(rng):
    return rng.uniform(0.0, 1.0, size=5) + np.array([0.0, 0.0, 0.0, 0.0, 0.01])


class TestVectorStream:
    def seeds(self):
        rng = np.random.default_rng(5)
        return EDGE_SEEDS + [int(x) for x in rng.integers(0, 2**64, size=40, dtype=np.uint64)]

    def test_stream_equals_next_uint64(self):
        seeds = self.seeds()
        out = stream_uint64(np.array(seeds, dtype=np.uint64), 9)
        assert out.shape == (len(seeds), 9) and out.dtype == np.uint64
        for seed, row in zip(seeds, out.tolist()):
            scalar = SplitMix64(seed)
            assert row == [scalar.next_uint64() for _ in range(9)]

    def test_unit_doubles_equal_random(self):
        seeds = self.seeds()
        doubles = unit_doubles(stream_uint64(seeds, 4))
        for seed, row in zip(seeds, doubles.tolist()):
            scalar = SplitMix64(seed)
            assert row == [scalar.random() for _ in range(4)]

    def test_derive_seeds_equal_derive_seed(self):
        indices = np.array([0, 1, 2, 99, 2**32, 2**62], dtype=np.uint64)
        for base in self.seeds():
            got = derive_seeds(base, indices).tolist()
            assert got == [derive_seed(base, int(i)) for i in indices]

    def test_randrange_first_draws_match_scalar(self):
        seeds = self.seeds()
        draws = stream_uint64(seeds, 1)[:, 0]
        # 2**63 + 1 rejects about half of all draws; 8 rejects none.
        for n in (1, 2, 6, 7, 8, 1500, 2**63 + 1):
            values, accepted = randrange_first_draws(draws, n)
            limit = 2**64 - (2**64 % n)
            for seed, draw, value, ok in zip(seeds, draws.tolist(), values.tolist(), accepted):
                assert ok == (draw < limit)
                if ok:
                    assert value == SplitMix64(seed).randrange(n)
        assert not randrange_first_draws(draws, 2**63 + 1)[1].all()

    def test_arrays_raise_no_overflow_warning(self):
        # Tier-1 turns RuntimeWarning into an error; wrapping must stay silent.
        stream_uint64(np.array([2**64 - 1], dtype=np.uint64), 3)
        derive_seeds(2**64 - 1, [2**63])


class TestGenerateValues:
    @pytest.mark.parametrize("instances", [1, 2, 5])
    def test_equals_generate_matrix_for_every_seed(self, instances):
        spec = ScenarioSpec(example_scenario().profiles, instances_per_profile=instances)
        seeds = [0, 7, 2**64 - 1, 123456789]
        values = generate_values(spec, seeds)
        assert values.shape == (3 * instances, 5, len(seeds))
        for t, seed in enumerate(seeds):
            expected = generate_matrix(spec.with_seed(seed)).values
            assert np.array_equal(values[..., t], expected)

    def test_grid_does_not_depend_on_batch(self):
        spec = example_scenario()
        seeds = np.arange(1, 40, dtype=np.uint64)
        whole = generate_values(spec, seeds)
        for k in (0, 5, 38):
            assert np.array_equal(generate_values(spec, seeds[k : k + 1])[..., 0], whole[..., k])


def old_column_positions(column, benefit, tie):
    """The while-loop column positions the sort-based version replaced (reference)."""
    key = -column if benefit else column
    order = np.argsort(key, kind="stable")
    positions = np.empty(len(column), dtype=float)
    positions[order] = np.arange(len(column), dtype=float)
    if tie is TiePolicy.MEAN_RANK:
        sorted_key = key[order]
        start = 0
        while start < len(column):
            stop = start
            while stop + 1 < len(column) and sorted_key[stop + 1] == sorted_key[start]:
                stop += 1
            if stop > start:
                positions[order[start : stop + 1]] = (start + stop) / 2.0
            start = stop + 1
    return positions


def old_chains(scores):
    """The loop tie chaining of RankingResult.from_scores before tie_order (reference)."""
    by_score = list(np.argsort(-scores, kind="stable"))
    chains = []
    start = 0
    while start < len(by_score):
        stop = start
        while (
            stop + 1 < len(by_score)
            and scores[by_score[stop]] - scores[by_score[stop + 1]] <= TIE_TOLERANCE
        ):
            stop += 1
        chains.append(sorted(by_score[start : stop + 1]))
        start = stop + 1
    return chains


def full_tie_order(scores):
    """tie_order without its early return, so every input is regrouped (reference)."""
    by_score = np.argsort(-scores, axis=-1, kind="stable")
    ranked = np.take_along_axis(scores, by_score, axis=-1)
    opens = np.zeros(ranked.shape, dtype=bool)
    opens[..., 1:] = ~(ranked[..., :-1] - ranked[..., 1:] <= TIE_TOLERANCE)
    ranked_group = np.cumsum(opens, axis=-1)
    group = np.empty_like(ranked_group)
    np.put_along_axis(group, by_score, ranked_group, axis=-1)
    order = np.argsort(group, axis=-1, kind="stable")
    return order, np.take_along_axis(group, order, axis=-1)


def assert_same_arrays(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestSharedKernels:
    @pytest.mark.parametrize("tie", list(TiePolicy))
    def test_column_positions_equal_loop(self, tie):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n, m = rng.integers(1, 30), rng.integers(1, 6)
            values = rng.integers(1, 5, size=(n, m, 3)).astype(float)  # many ties
            benefit = rng.random(m) < 0.5
            got = _column_positions(values, benefit[:, None], tie)
            for t in range(3):
                for j in range(m):
                    expected = old_column_positions(values[:, j, t], benefit[j], tie)
                    assert np.array_equal(got[:, j, t], expected)
                assert np.array_equal(_column_positions(values[..., t], benefit, tie), got[..., t])

    @pytest.mark.parametrize("tie", list(TiePolicy))
    def test_msaw_drop_scores_equal_scoring_the_reduced_grid(self, tie):
        rng = np.random.default_rng(14)
        for _ in range(40):
            trials, n, m = 7, int(rng.integers(2, 12)), int(rng.integers(1, 13))
            values = rng.integers(1, 4, size=(n, m, trials)).astype(float)  # many ties
            benefit = rng.random(m) < 0.5
            w = rng.random(m) + 0.01
            for alpha in (None, n + int(rng.integers(0, 4))):
                args = (benefit[:, None], w[:, None], tie, alpha)
                full = _score_msaw(values, *args)
                every_row = [np.full(trials, k) for k in range(n)]
                for removed in every_row + [rng.integers(0, n, trials)]:
                    got_full, got = _msaw_drop_scores(values, *args, removed)
                    assert got_full.tolist() == full.tolist()
                    for t, k in enumerate(removed.tolist()):
                        reduced = np.delete(values[..., t], k, axis=0)
                        expected = _score_msaw(reduced, benefit, w, tie, alpha)
                        assert got[:, t].tolist() == expected.tolist()

    def test_grid_sum_adds_each_grid_as_the_lone_grid(self):
        # numpy adds 8 or more contiguous values pairwise: a stack's criteria
        # (and its alternatives when m = 1) must still add as a lone grid's.
        rng = np.random.default_rng(15)
        for n in (2, 9, 27):
            for m in range(1, 13):
                values = rng.random((n, m, 6)) * 10.0 ** rng.uniform(-3, 3, (n, m, 6))
                for axis in (0, 1):
                    got = _grid_sum(values, axis)
                    for t in range(6):
                        expected = values[..., t].copy().sum(axis=axis)
                        assert got[:, t].tolist() == expected.tolist(), (n, m, axis)

    def test_tie_order_equals_loop_chaining(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(0, 25))
            # Near-ties: steps of about the tolerance chain into wide groups.
            scores = np.round(rng.random(n) * 8) * 1e-9 + rng.integers(0, 3, size=n) * 1e-6
            chains = old_chains(scores)
            order, group = tie_order(scores)
            assert order.tolist() == [i for chain in chains for i in chain]
            assert group.tolist() == [g for g, chain in enumerate(chains) for _ in chain]
            labels = [f"a{i}" for i in range(n)]
            result = RankingResult.from_scores("x", labels, scores)
            assert result.ties == tuple(
                tuple(labels[i] for i in chain) for chain in chains if len(chain) > 1
            )

    def test_tie_order_equals_full_path(self):
        tol = TIE_TOLERANCE
        above = np.nextafter(tol, np.inf)  # one ulp wider than the tolerance
        nan = np.nan
        # Gaps of exactly tol (2tol - tol and tol - 0 are exact) chain; gaps one
        # ulp wider, and NaN gaps, open a group.
        rows = {
            0: [[]],
            1: [[0.3], [nan]],
            2: [[0.3, 0.1], [0.1, 0.3], [tol, 0.0], [0.0, tol], [above, 0.0], [0.0, above],
                [nan, 0.2], [0.2, nan], [nan, nan], [0.5, 0.5]],
            3: [[2 * tol, tol, 0.0], [0.0, above, 2 * above], [tol, nan, 0.0], [nan, 0.0, tol],
                [0.3, 0.2, 0.1], [0.1, 0.3, 0.2], [0.2, 0.2 - tol / 2, nan], [tol, 0.0, above]],
        }
        for n, group in rows.items():
            # For n >= 2 some rows chain and some do not, so the batch takes the
            # full path while a row alone may take the early return.
            batch = np.array(group).reshape(len(group), n)
            assert_same_arrays(tie_order(batch), full_tie_order(batch))
            for r, (order, grp) in enumerate(zip(*tie_order(batch))):
                for alone in (batch[r], batch[r : r + 1]):
                    assert_same_arrays(tie_order(alone), full_tie_order(alone))
                assert_same_arrays(tie_order(batch[r]), (order, grp))
        chaining = tie_order(np.array([[0.3, 0.2, 0.1], [tol, 0.0, 0.5]]))
        assert chaining[1].tolist() == [[0, 1, 2], [0, 1, 1]]  # the second row chains

    def test_tie_order_rows_are_independent(self):
        rng = np.random.default_rng(13)
        scores = np.round(rng.random((20, 9)) * 4) / 4
        order, group = tie_order(scores)
        for row, o, g in zip(scores, order, group):
            alone = tie_order(row)
            assert np.array_equal(alone[0], o) and np.array_equal(alone[1], g)


class TestRankEqualsBatch:
    @pytest.mark.parametrize("instances", [2, 4, 9])
    @pytest.mark.parametrize("tie", list(TiePolicy))
    def test_scores_equal_exactly(self, instances, tie):
        # n = 6, 12 and 27: sums over alternatives with 8 or more terms too.
        spec = ScenarioSpec(example_scenario().profiles, instances_per_profile=instances)
        seeds = np.arange(100, 113, dtype=np.uint64)
        values = generate_values(spec, seeds)
        benefit = generate_matrix(spec).benefit_mask[:, None]
        w = np.asarray(VOIP.weights)[:, None]
        for method in METHODS:
            batch = scorer(method)(values, benefit, w, tie, None)
            reduced_batch = scorer(method)(values[1:], benefit, w, tie, None)
            for t, seed in enumerate(seeds.tolist()):
                matrix = generate_matrix(spec.with_seed(seed))
                full = rank(matrix, VOIP, method, tie=tie)
                assert [full.scores[a] for a in matrix.alternatives] == batch[:, t].tolist()
                reduced_matrix = drop_alternative(matrix, matrix.alternatives[0])
                reduced = rank(reduced_matrix, VOIP, method, tie=tie)
                got = [reduced.scores[a] for a in reduced_matrix.alternatives]
                assert got == reduced_batch[:, t].tolist()

    @pytest.mark.parametrize("m", [1, 5, 9])
    @pytest.mark.parametrize("n", [2, 6, 27])
    @pytest.mark.parametrize("tie", list(TiePolicy))
    def test_stacked_scores_equal_rank_of_each_grid(self, n, m, tie):
        # Random grids with tied values, benefit and cost criteria, and the
        # default alpha as well as a larger one; from 8 alternatives or
        # criteria on, numpy would add a lone grid's sums pairwise.
        rng = np.random.default_rng(n * 100 + m)
        trials = 11
        values = rng.integers(1, 6, size=(n, m, trials)) * rng.uniform(0.5, 2.0, size=(1, m, 1))
        directions = [Direction.BENEFIT, Direction.COST, Direction.COST, Direction.BENEFIT]
        criteria = [CriterionSpec(f"c{j}", directions[j % 4]) for j in range(m)]
        benefit = np.array([c.direction is Direction.BENEFIT for c in criteria])
        labels = [f"a{i}" for i in range(n)]
        w = rng.uniform(0.01, 1.0, size=m)
        for alpha in (None, n + 3):
            for method in METHODS:
                stack = scorer(method)(values, benefit[:, None], w[:, None], tie, alpha)
                assert stack.shape == (n, trials)
                for t in range(trials):
                    matrix = DecisionMatrix(labels, criteria, values[..., t])
                    result = rank(matrix, w, method, tie=tie, alpha=alpha)
                    assert [result.scores[a] for a in labels] == stack[:, t].tolist()


class TestDropEngineEqualsRank:
    """The drop and duplicate experiments score one grid as a stack ``(n, m, 1)``."""

    def matrix(self, seed, n=7, m=9):
        rng = np.random.default_rng(seed)
        values = rng.integers(1, 4, size=(n, m)) * rng.uniform(0.1, 10.0, size=m)
        criteria = [
            CriterionSpec(f"c{j}", Direction.BENEFIT if j % 3 else Direction.COST)
            for j in range(m)
        ]
        weights = rng.uniform(0.1, 1.0, size=m)
        return DecisionMatrix([f"a{i}" for i in range(n)], criteria, values), weights

    @pytest.mark.parametrize("tie", list(TiePolicy))
    def test_nine_criteria_orders_equal_rank(self, tie):
        for seed in range(6):
            matrix, w = self.matrix(seed)
            for method in METHODS:
                for alpha in (None, 10):
                    options = {"tie": tie, "alpha": alpha}
                    baseline = rank(matrix, w, method, **options).order
                    for label in matrix.alternatives:
                        report = reversal_experiment(matrix, w, method, label, **options)
                        reduced = rank(drop_alternative(matrix, label), w, method, **options)
                        assert report.baseline_order == baseline
                        assert report.reduced_order == reduced.order
                        copied = duplication_experiment(matrix, w, method, label, **options)
                        expanded = rank(duplicate_alternative(matrix, label), w, method, **options)
                        assert copied.baseline_order == baseline
                        assert copied.expanded_order == expanded.order

    def test_nine_criteria_scores_equal_rank(self, monkeypatch):
        # The scores the drop experiment orders are rank()'s bit for bit,
        # although numpy adds 8 or more criteria of a lone grid pairwise.
        ordered = []

        def recording_tie_order(scores):
            ordered.append(scores)
            return tie_order(scores)

        monkeypatch.setattr(analysis, "tie_order", recording_tie_order)
        for seed in range(6):
            matrix, w = self.matrix(seed)
            label = matrix.alternatives[seed]
            reduced_matrix = drop_alternative(matrix, label)
            for method in METHODS:
                ordered.clear()
                reversal_experiment(matrix, w, method, label)
                assert len(ordered) == 2  # the full scores, then the reduced ones
                for scores, grid in zip(ordered, (matrix, reduced_matrix)):
                    expected = rank(grid, w, method).scores
                    assert scores[0, 0].tolist() == [expected[a] for a in grid.alternatives]

    def test_stack_of_one_sums_like_the_grid(self):
        # With 8 or more criteria numpy sums a grid's rows pairwise; a stack
        # of one grid must give the same bits, which is what the experiments
        # above rely on.
        for seed in range(6):
            matrix, w = self.matrix(seed, n=12, m=9 + seed)
            values, benefit = matrix.values, matrix.benefit_mask
            for method in METHODS:
                args = (benefit[:, None], w[:, None], TiePolicy.MEAN_RANK, None)
                stack = scorer(method)(values[..., None], *args)
                scores = rank(matrix, w, method).scores
                assert stack[:, 0].tolist() == [scores[a] for a in matrix.alternatives]


class TestMonteCarloEqualsLoop:
    def test_random_cases(self, monkeypatch):
        rng = np.random.default_rng(2024)
        specs = [
            example_scenario(),
            ScenarioSpec(example_scenario().profiles, instances_per_profile=3),
            degenerate_spec(),
            degenerate_spec(1),
        ]
        for case in range(96):
            spec = specs[(case // 2) % len(specs)]
            n = len(spec.profiles) * spec.instances_per_profile
            # Small blocks, so that the trials cross block boundaries.
            trials_per_block = int(rng.integers(1, 9))
            monkeypatch.setattr(analysis, "BLOCK_VALUES", trials_per_block * n * 5)
            trials = int(rng.integers(1, 40))
            seed = int(rng.integers(0, 2**64, dtype=np.uint64))
            k = int(rng.integers(1, len(METHODS) + 1))
            methods = tuple(rng.choice(METHODS, size=k, replace=False).tolist())
            tie = list(TiePolicy)[case % 2]
            alpha = None if case % 3 else n + int(rng.integers(0, 5))
            if tie is TiePolicy.STABLE_INDEX and alpha is not None and "msaw" not in methods:
                methods += ("msaw",)  # msaw's leave-one-out shifts under STABLE_INDEX
            weights = VOIP if case % 4 == 0 else random_weights(rng)
            args = (spec, weights, methods, trials, seed, tie, alpha)
            got = monte_carlo_reversal(*args)
            assert got.reversal_counts == loop_monte_carlo(*args), case

    @pytest.mark.parametrize(
        "tie, extra_alpha",
        [(TiePolicy.STABLE_INDEX, None), (TiePolicy.MEAN_RANK, 3), (TiePolicy.STABLE_INDEX, 3)],
    )
    def test_stable_index_and_larger_alpha(self, tie, extra_alpha):
        for spec in (example_scenario(), degenerate_spec()):
            n = len(spec.profiles) * spec.instances_per_profile
            alpha = None if extra_alpha is None else n + extra_alpha
            args = (spec, VOIP, METHODS, 300, 5, tie, alpha)
            assert monte_carlo_reversal(*args).reversal_counts == loop_monte_carlo(*args)

    def test_degenerate_spec_ties_and_reverses(self):
        spec = degenerate_spec()
        report = monte_carlo_reversal(spec, VOIP, METHODS, trials=300, seed=4)
        assert report.reversal_counts == loop_monte_carlo(spec, VOIP, METHODS, 300, 4)
        values = generate_values(spec, [1])[..., 0]
        assert len(np.unique(values[:, 0])) < len(values)  # tied columns

    def test_golden_counts_for_every_block_size(self, monkeypatch):
        spec = example_scenario()
        golden = {"msaw": 372, "saw": 135, "wpm": 0, "topsis": 186, "ahp": 236}
        for block_values in (30, 7 * 30, 999 * 30, 1 << 16):
            monkeypatch.setattr(analysis, "BLOCK_VALUES", block_values)
            report = monte_carlo_reversal(spec, VOIP, METHODS, trials=1000, seed=7)
            assert report.reversal_counts == golden

    def test_prefix_property(self):
        # A run of t + 1 trials adds trial t's outcome to the run of t trials.
        spec = example_scenario()
        lengths = (1, 2, 272, 273, 274)  # 273 trials fill one block at n = 6
        runs = [monte_carlo_reversal(spec, VOIP, METHODS, t, 3).reversal_counts for t in lengths]
        assert runs == [loop_monte_carlo(spec, VOIP, METHODS, t, 3) for t in lengths]
        for (t, short), (u, long) in zip(zip(lengths, runs), zip(lengths[1:], runs[1:])):
            assert all(0 <= long[m] - short[m] <= u - t for m in METHODS)

    def test_rejected_removal_draw_falls_back_to_the_loop(self, monkeypatch):
        # A real rejection at n = 6 has probability about 2**-62 per trial, so
        # here every removal draw that is 1 mod 3 counts as rejected.
        real = analysis.randrange_first_draws
        ran = []

        def reject_some(draws, n):
            values, accepted = real(draws, n)
            return values, accepted & (draws % np.uint64(3) != 1)

        def count_trials(*args):
            ran.append(args[4])
            return trial_reversals(*args)

        trial_reversals = analysis._trial_reversals
        monkeypatch.setattr(analysis, "randrange_first_draws", reject_some)
        monkeypatch.setattr(analysis, "_trial_reversals", count_trials)
        monkeypatch.setattr(analysis, "BLOCK_VALUES", 30)  # one trial per block
        spec = example_scenario()
        report = monte_carlo_reversal(spec, VOIP, METHODS, trials=30, seed=6)
        assert report.reversal_counts == loop_monte_carlo(spec, VOIP, METHODS, 30, 6)

        def removal_draw(trial):
            stream = SplitMix64(derive_seed(6, trial))
            stream.next_uint64()
            return stream.next_uint64()

        assert ran == [t for t in range(30) if removal_draw(t) % 3 == 1]
        assert 0 < len(ran) < 30

    def test_repeated_method_counts_twice(self):
        spec = example_scenario()
        methods = ("saw", "msaw", "saw")
        report = monte_carlo_reversal(spec, VOIP, methods, trials=50, seed=8)
        assert report.reversal_counts == loop_monte_carlo(spec, VOIP, methods, 50, 8)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the outcome under test is the exception itself
        return (type(exc), str(exc))


class TestErrorParity:
    def both(self, spec, weights, methods, trials=20, seed=1, tie=TiePolicy.MEAN_RANK, alpha=None):
        args = (spec, weights, methods, trials, seed, tie, alpha)
        batched = outcome(lambda *a: monte_carlo_reversal(*a).reversal_counts, *args)
        assert batched == outcome(loop_monte_carlo, *args)
        return batched

    def test_zero_delay_range_is_nonpositive_cost(self):
        spec = ScenarioSpec((profile("A", delay=(0.0, 0.0)), profile("B")))
        kind, message = self.both(spec, VOIP, METHODS)
        assert kind is MatrixValidationError and message.startswith("nonpositive_cost")

    def test_zero_bandwidth_beside_positive_fails_wpm_only(self):
        spec = ScenarioSpec((profile("A", bw=(0.0, 0.0)), profile("B")), instances_per_profile=2)
        kind, message = self.both(spec, VOIP, ("msaw", "saw", "wpm"))
        assert kind is MatrixValidationError and message.startswith("nonpositive_value")
        assert self.both(spec, VOIP, ("msaw", "saw", "topsis", "ahp"))[0] == "ok"

    def test_alpha_below_n(self):
        kind, message = self.both(example_scenario(), VOIP, METHODS, alpha=5)
        assert kind is ValueError and "alpha" in message
        assert self.both(example_scenario(), VOIP, ("saw",), alpha=5)[0] == "ok"

    def test_unknown_method(self):
        kind, message = self.both(example_scenario(), VOIP, ("saw", "bogus"))
        assert kind is ValueError and "bogus" in message

    def test_each_method_checks_name_then_weights_then_alpha(self):
        spec = example_scenario()
        kind, message = self.both(spec, [1.0, 2.0], ("bogus", "msaw"), alpha=5)
        assert kind is ValueError and "bogus" in message
        kind, message = self.both(spec, [1.0, 2.0], ("msaw", "bogus"), alpha=5)
        assert kind is ValueError and "weights" in message
        kind, message = self.both(spec, VOIP, ("msaw", "bogus"), alpha=5)
        assert kind is ValueError and "alpha" in message

    @pytest.mark.parametrize(
        "weights", [[1.0, 2.0], [1.0, -1.0, 1.0, 1.0, 1.0], [0.0] * 5, [np.nan, 1, 1, 1, 1]]
    )
    def test_bad_weights(self, weights):
        assert self.both(example_scenario(), weights, ("msaw", "bogus"))[0] is ValueError

    def test_single_alternative(self):
        spec = ScenarioSpec((profile("A"),))
        assert self.both(spec, VOIP, METHODS)[0] is ValueError

    def test_overflowing_energy_is_non_finite(self):
        huge = RatProfile("A", (1.0, 1e10), (5.0, 50.0), (0.1, 2.0), 1.0, (1e300, 1e300, 1.0))
        kind, message = self.both(ScenarioSpec((huge, profile("B"))), VOIP, METHODS)
        assert kind is MatrixValidationError and message.startswith("non_finite")
