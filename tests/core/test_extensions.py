"""Tests for the paper's extension points: multi-gate iterations and
the heuristic (future-work) sizer."""

import pytest

from repro.core.brute_force_sizer import BruteForceStatisticalSizer
from repro.core.heuristic_sizer import HeuristicStatisticalSizer
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.errors import OptimizationError


class TestMultiGateIterations:
    def test_invalid_count(self, c17, fast_config):
        with pytest.raises(OptimizationError):
            PrunedStatisticalSizer(
                c17, config=fast_config, gates_per_iteration=0
            )

    def test_sizes_multiple_gates(self, c17, fast_config):
        sizer = PrunedStatisticalSizer(
            c17, config=fast_config, gates_per_iteration=2, max_iterations=2
        )
        result = sizer.run()
        assert result.steps
        # At least one iteration should have found 2 improving gates.
        assert any(len(s.all_gates) == 2 for s in result.steps)

    def test_total_size_accounts_all_moves(self, c17, fast_config):
        sizer = PrunedStatisticalSizer(
            c17, config=fast_config, gates_per_iteration=2, max_iterations=2
        )
        result = sizer.run()
        moves = sum(len(s.all_gates) for s in result.steps)
        assert result.final_size == pytest.approx(
            result.initial_size + moves * fast_config.delta_w
        )

    def test_replay_includes_extra_gates(self, c17, fast_config):
        sizer = PrunedStatisticalSizer(
            c17, config=fast_config, gates_per_iteration=2, max_iterations=2
        )
        result = sizer.run()
        final = result.widths_at_iteration(result.n_iterations)
        assert final == c17.widths()

    def test_first_move_is_best(self, c17, fast_config):
        sizer = PrunedStatisticalSizer(
            c17, config=fast_config, gates_per_iteration=3, max_iterations=1
        )
        selection = sizer._select_gate()  # noqa: SLF001
        sensitivities = [s for _g, s in selection.moves]
        assert sensitivities == sorted(sensitivities, reverse=True)
        assert all(s > 0 for s in sensitivities)

    def test_top1_matches_single_gate_mode(self, c17, fast_config):
        multi = PrunedStatisticalSizer(
            c17.copy(), config=fast_config, gates_per_iteration=1,
            max_iterations=3,
        ).run()
        single = PrunedStatisticalSizer(
            c17.copy(), config=fast_config, max_iterations=3
        ).run()
        assert [s.gate for s in multi.steps] == [s.gate for s in single.steps]

    def test_still_improves_objective(self, c17, fast_config):
        result = PrunedStatisticalSizer(
            c17, config=fast_config, gates_per_iteration=2, max_iterations=3
        ).run()
        assert result.final_objective < result.initial_objective

    def test_multi_converges_faster_per_ssta(self, fast_config):
        """N gates per iteration reach a given area with ~N times fewer
        SSTA refreshes."""
        from repro.netlist.benchmarks import load

        single = PrunedStatisticalSizer(
            load("c432", scale=0.25), config=fast_config, max_iterations=6
        ).run()
        multi = PrunedStatisticalSizer(
            load("c432", scale=0.25), config=fast_config,
            gates_per_iteration=3, max_iterations=2,
        ).run()
        moves_multi = sum(len(s.all_gates) for s in multi.steps)
        assert moves_multi >= single.n_iterations
        assert multi.n_iterations < single.n_iterations


class TestHeuristicSizer:
    def test_invalid_beam(self, c17, fast_config):
        with pytest.raises(OptimizationError):
            HeuristicStatisticalSizer(c17, config=fast_config, beam_width=0)

    def test_improves_objective(self, c17, fast_config):
        result = HeuristicStatisticalSizer(
            c17, config=fast_config, beam_width=2, max_iterations=5
        ).run()
        assert result.final_objective < result.initial_objective

    def test_wide_beam_matches_exact(self, c17, fast_config):
        exact = BruteForceStatisticalSizer(
            c17.copy(), config=fast_config, max_iterations=4
        ).run()
        heur = HeuristicStatisticalSizer(
            c17.copy(), config=fast_config, beam_width=6, max_iterations=4
        ).run()
        assert [s.gate for s in exact.steps] == [s.gate for s in heur.steps]
        assert [s.sensitivity for s in exact.steps] == [
            s.sensitivity for s in heur.steps
        ]

    def test_narrow_beam_never_worse_than_no_optimization(self, fast_config):
        from repro.netlist.benchmarks import load

        result = HeuristicStatisticalSizer(
            load("c432", scale=0.3), config=fast_config, beam_width=1,
            max_iterations=6,
        ).run()
        assert result.final_objective <= result.initial_objective

    def test_beam_prunes_rest(self, c17, fast_config):
        sizer = HeuristicStatisticalSizer(
            c17, config=fast_config, beam_width=2, max_iterations=1
        )
        selection = sizer._select_gate()  # noqa: SLF001
        assert selection.stats.pruned == 6 - 2
        assert selection.stats.finished_fronts == 2

    def test_narrow_beam_quality_bounded(self, fast_config):
        """The beam winner's sensitivity must be within the best
        initial bound of the exact winner's sensitivity (the heuristic's
        a-priori guarantee)."""
        from repro.netlist.benchmarks import load

        circuit = load("c432", scale=0.3)
        exact = BruteForceStatisticalSizer(
            circuit.copy(), config=fast_config, max_iterations=1
        )
        sel_exact = exact._select_gate()  # noqa: SLF001
        heur = HeuristicStatisticalSizer(
            circuit.copy(), config=fast_config, beam_width=4, max_iterations=1
        )
        sel_heur = heur._select_gate()  # noqa: SLF001
        assert sel_heur.best_sensitivity <= sel_exact.best_sensitivity + 1e-9
        assert sel_heur.best_sensitivity >= 0.0


class TestIncrementalSizer:
    """The pruned sizer refreshes its base SSTA incrementally after the
    first iteration and resumes fronts across iterations; the brute
    force sizer runs a full SSTA per candidate.  They must still agree
    bit for bit."""

    def test_incremental_matches_brute_force(self, c17, fast_config):
        brute = BruteForceStatisticalSizer(
            c17.copy(), config=fast_config, max_iterations=6
        ).run()
        pruned = PrunedStatisticalSizer(
            c17.copy(), config=fast_config, max_iterations=6
        ).run()
        assert [s.gate for s in brute.steps] == [s.gate for s in pruned.steps]
        assert [s.sensitivity for s in brute.steps] == [
            s.sensitivity for s in pruned.steps
        ]
        assert brute.final_objective == pruned.final_objective

    def test_incremental_on_benchmark(self, fast_config):
        from repro.netlist.benchmarks import load

        brute = BruteForceStatisticalSizer(
            load("c432", scale=0.25), config=fast_config, max_iterations=4
        ).run()
        pruned = PrunedStatisticalSizer(
            load("c432", scale=0.25), config=fast_config, max_iterations=4
        ).run()
        assert [s.gate for s in brute.steps] == [s.gate for s in pruned.steps]
        assert brute.final_objective == pruned.final_objective

    def test_incremental_with_multi_gate(self, c17, fast_config):
        result = PrunedStatisticalSizer(
            c17, config=fast_config, max_iterations=3,
            gates_per_iteration=2,
        ).run()
        assert result.final_objective < result.initial_objective
