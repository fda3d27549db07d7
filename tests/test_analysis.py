"""Tests for the complexity model, reporting tables and comparison."""

from __future__ import annotations

import pytest

from repro.analysis.compare import compare_protocols, diagram_shape
from repro.analysis.complexity import (
    fit_exponential_growth,
    max_states,
    visit_lower_bound,
)
from repro.analysis.reporting import (
    expansion_listing,
    figure4_table,
    format_table,
)
from repro.core.essential import explore
from repro.protocols.illinois import IllinoisProtocol


class TestComplexityFormulas:
    def test_max_states(self):
        assert max_states(4, 3) == 64
        assert max_states(2, 10) == 1024

    def test_visit_lower_bound(self):
        # n·k·m^n from Section 3.1.
        assert visit_lower_bound(3, 3, 4) == 3 * 3 * 64

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            max_states(0, 3)
        with pytest.raises(ValueError):
            visit_lower_bound(2, 0, 4)

    def test_fit_recovers_exact_exponential(self):
        ns = [1, 2, 3, 4, 5]
        counts = [3 * 2**n for n in ns]
        fit = fit_exponential_growth(ns, counts)
        assert fit.base == pytest.approx(2.0, rel=1e-6)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.exponential
        assert fit.predict(6) == pytest.approx(3 * 64, rel=1e-6)

    def test_fit_flat_series_not_exponential(self):
        fit = fit_exponential_growth([1, 2, 3, 4], [23, 23, 23, 23])
        assert not fit.exponential

    def test_fit_input_validation(self):
        with pytest.raises(ValueError):
            fit_exponential_growth([1], [5])
        with pytest.raises(ValueError):
            fit_exponential_growth([1, 2], [5, 0])

    # (base, prefactor, r_squared) as numpy.polyfit computed them before
    # the fit became closed-form least squares in ``math``.
    @pytest.mark.parametrize(
        "ns, counts, pinned",
        [
            (
                [1, 2, 3, 4, 5],
                [3 * 2**n for n in (1, 2, 3, 4, 5)],
                (2.0, 3.000000000000001, 1.0),
            ),
            (
                [1, 2, 3, 4],
                [23, 23, 23, 23],
                (0.9999999999999999, 23.00000000000001, 1.0),
            ),
            # E4: Illinois strict-enumeration visits for n = 1..7
            # (benchmarks/bench_state_space_growth.py).
            (
                [1, 2, 3, 4, 5, 6, 7],
                [8, 40, 102, 232, 510, 1116, 2450],
                (2.480766871719949, 5.137447684752115, 0.9822679411920221),
            ),
        ],
    )
    def test_fit_matches_pinned_polyfit(self, ns, counts, pinned):
        fit = fit_exponential_growth(ns, counts)
        for got, want in zip((fit.base, fit.prefactor, fit.r_squared), pinned):
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_fit_needs_two_distinct_ns(self):
        with pytest.raises(ValueError):
            fit_exponential_growth([3, 3], [5, 9])


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_title(self):
        text = format_table(["a"], [["x"]], title="T")
        assert text.startswith("T\n")

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text


class TestFigure4Table:
    def test_contains_every_essential_state(self, illinois_result):
        text = figure4_table(illinois_result)
        for state in illinois_result.essential:
            assert state.pretty(annotations=False) in text

    def test_sharing_tuples_match_paper(self, illinois_result):
        text = figure4_table(illinois_result)
        # s0 (Invalid+): (false); s3 (Shared+, Inv*): (true, true).
        assert "(false)" in text
        assert "(true, true)" in text

    def test_mdata_column(self, illinois_result):
        text = figure4_table(illinois_result)
        assert "obsolete" in text  # the Dirty row


class TestExpansionListing:
    def test_requires_trace(self, illinois_result):
        with pytest.raises(ValueError):
            expansion_listing(illinois_result)

    def test_lists_every_visit(self):
        result = explore(IllinoisProtocol(), keep_trace=True)
        text = expansion_listing(result)
        assert f"({result.stats.visits} state visits)" in text
        assert text.count("-->") == result.stats.visits


class TestCompare:
    def test_shape(self, illinois_result):
        shape = diagram_shape(illinois_result)
        assert shape.n_states == 5
        assert shape.n_edges == len(illinois_result.transitions)
        assert dict(shape.ops_histogram)["Z"] >= 4

    def test_self_comparison_is_isomorphic(self, illinois_result):
        report = compare_protocols(illinois_result, illinois_result)
        assert report.isomorphic
        assert not report.only_in_a
        assert not report.only_in_b

    def test_illinois_vs_firefly_disparity(self, explored_augmented):
        """The write-update/write-invalidate disparity is visible in the
        diagrams: Firefly has a W self-loop on the sharing state where
        Illinois collapses to the owner state."""
        report = compare_protocols(
            explored_augmented["illinois"], explored_augmented["firefly"]
        )
        assert ("W", False, True) in report.only_in_b
        assert report.render()

    def test_msi_vs_synapse_similarity(self, explored_augmented):
        """MSI and Synapse have the same three-state global shape."""
        report = compare_protocols(
            explored_augmented["msi"], explored_augmented["synapse"]
        )
        assert report.a.n_states == report.b.n_states == 3
