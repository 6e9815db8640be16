import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podlab import _csvfmt
from podlab._csvfmt import format_text
from podlab.config import channel_config, scenario_config
from podlab.simloop import run_closed_loop


@pytest.fixture(scope="module")
def default_trace(cfg, plant, loop_designs):
    """The default config's 30 s closed-loop trace."""
    sim = cfg["simulation"]
    dp, dq = (ld.design for ld in loop_designs)
    return run_closed_loop(
        plant, dp, dq, channel_config(cfg), scenario_config(cfg),
        seed=sim["base_seed"], duration_s=sim["duration_s"], dt=sim["dt_s"],
    )


def _per_cell(header, *columns):
    """``header`` and each row of ``columns`` formatted cell by cell, as one text."""
    rows = [header] + [",".join(f"{c[i]:.9g}" for c in columns) for i in range(len(columns[0]))]
    return "\n".join(rows) + "\n"


class TestFormatRows:
    """Each row of ``format_text``'s text against a per-cell ``%.9g``."""

    def test_edge_values_match_per_cell_format(self):
        x = np.array(
            [0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 5e-324, -2.5e-17, 123456789.5, 1e21,
             np.nan, np.inf, -np.inf, 1 / 3, 2.0**53 + 2, np.nextafter(0.1, 1.0)]
        )
        assert format_text("a,b", x, x[::-1].copy()) == _per_cell("a,b", x, x[::-1])

    def test_rows_span_several_chunks(self):
        n = 2 * _csvfmt._CHUNK + 17
        rng = np.random.default_rng(3)
        cols = [np.arange(n) / 1000.0, rng.normal(size=n), rng.normal(scale=1e-5, size=n)]
        text = format_text("t,u,y", *cols)
        assert text.count("\n") == n + 1
        assert text == _per_cell("t,u,y", *cols)

    def test_empty_columns_give_the_header(self):
        assert format_text("t", np.empty(0)) == "t\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    def test_any_float_matches_per_cell_format(self, values):
        x = np.array(values)
        assert format_text("v,w", x, -x) == _per_cell("v,w", x, -x)


def _assert_cpython_bytes(x):
    """Each value of ``x`` beside its mirror image, as CPython's ``%`` prints them."""
    x = np.asarray(x, dtype=float)
    y = -x[::-1]
    rows = ["v,w"] + ["%.9g,%.9g" % r for r in zip(x.tolist(), y.tolist())]
    assert format_text("v,w", x, y) == "\n".join(rows) + "\n"


def _assert_runs_print_per_cell(*columns):
    """The text prints each cell of ``columns`` as CPython's ``%``."""
    header = ",".join(f"c{j}" for j in range(len(columns)))
    expect = [header] + [",".join("%.9g" % c[i] for c in columns) for i in range(len(columns[0]))]
    assert format_text(header, *columns) == "\n".join(expect) + "\n"


def _from_bits(*words):
    return np.array(words, dtype=np.uint64).view(np.float64)


class TestRuns:
    """Only the first value of a run of bitwise-equal values is encoded."""

    def test_runs_cross_chunk_and_span_boundaries(self):
        chunk, span = _csvfmt._CHUNK, _csvfmt._SPAN
        lengths = [chunk - 1, 2, chunk + 1, span - 2 * chunk - 3, 5, span, 1, 2 * chunk]
        values = np.random.default_rng(17).normal(size=len(lengths))
        runs = np.repeat(values, lengths)
        n = runs.size
        assert n > 2 * span
        _assert_runs_print_per_cell(np.arange(n) / 100.0, runs, np.repeat(values[::-1], lengths))

    def test_one_run_over_the_whole_column(self):
        n = _csvfmt._SPAN + _csvfmt._CHUNK + 3
        _assert_runs_print_per_cell(np.full(n, 0.1), np.full(n, -2.5e-7))

    def test_zero_and_negative_zero_are_different_runs(self):
        x = np.tile([0.0, -0.0], 700)
        _assert_runs_print_per_cell(x, np.repeat([0.0, -0.0, 0.0], [600, 600, 200]))

    def test_nans_with_different_payloads(self):
        nans = _from_bits(0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001)
        assert np.isnan(nans).all()
        _assert_runs_print_per_cell(np.repeat(nans, 300), np.tile(nans, 300))

    def test_values_left_to_cpython_repeated_in_a_run(self):
        near_tie = 123456789.5 * 10.0**-3
        assert not _csvfmt._mantissa(np.array([near_tie]))[2][0]
        n = 3 * _csvfmt._CHUNK
        x = np.repeat([1.5, 1e-320, near_tie, 1e-320, 2.0], [5, n, n, 1, 7])
        _assert_runs_print_per_cell(x, np.arange(x.size, dtype=float))

    def test_strided_columns(self):
        x = np.repeat(np.random.default_rng(23).normal(size=(700, 3)), 7, axis=0)
        x[::5, 1] = -0.0
        _assert_runs_print_per_cell(x[:, 0], x[:, 1], x[::-1, 2])

    @pytest.mark.parametrize("n", [0, 1])
    def test_one_row_and_empty_columns(self, n):
        _assert_runs_print_per_cell(np.full(n, 3.25), np.full(n, -0.0))


def _neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


class TestArrayEncoder:
    def test_unequal_column_lengths_raise(self):
        with pytest.raises(ValueError, match="differ in length"):
            format_text("a,b", np.arange(3.0), np.arange(2.0))

    def test_no_column_raises(self):
        with pytest.raises(ValueError, match="at least one column is required"):
            format_text("t")

    def test_near_ties_and_their_neighbours(self):
        rng = np.random.default_rng(11)
        mantissas = np.r_[1e8, 1e8 + 1, rng.integers(10**8, 10**9 - 1, size=60), 10**9 - 1]
        ties = [(mantissas + 0.5) * 10.0 ** (x - 8) for x in range(-16, 33)]
        _assert_cpython_bytes(_neighbours(np.concatenate(ties)))

    def test_powers_of_ten_and_one_ulp_either_side(self):
        _assert_cpython_bytes(_neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    def test_fixed_to_exponent_switch(self):
        switch = [1e-5, 9.9999999995e-5, 1e-4, 0.000123456789, 99999999.95, 999999999.5, 1e9]
        _assert_cpython_bytes(_neighbours(switch))

    def test_exponent_range_edges(self):
        # X = -14 and 30 are the array path's last exponents; -15 and 31 fall back
        edges = [f"{d}e{x}" for x in (-15, -14, 30, 31) for d in ("1", "1.5", "9.99999999", "9.999999999")]
        _assert_cpython_bytes(_neighbours([float(e) for e in edges]))

    def test_subnormals_zeros_and_non_finite(self):
        tiny = np.finfo(float).smallest_subnormal
        _assert_cpython_bytes(
            [tiny, 3 * tiny, 2.0**-1030, np.finfo(float).tiny, 0.0, -0.0, np.nan, np.inf, -np.inf]
        )

    def test_seeded_values_in_every_decade(self):
        rng = np.random.default_rng(2024)
        decades = np.arange(-17, 33)
        x = rng.uniform(1.0, 10.0, size=(decades.size, 10_000)) * 10.0 ** decades[:, None]
        _assert_cpython_bytes(np.where(rng.random(x.shape) < 0.5, -x, x).ravel())

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(5).integers(0, 2**64, size=100_000, dtype=np.uint64)
        _assert_cpython_bytes(bits.view(np.float64))

    def test_default_trace_takes_the_array_path(self, default_trace):
        """A value sent to CPython prints the same bytes, only slower; the
        default trace's finite non-zero values must all stay on the array path."""
        trace = default_trace
        v = np.concatenate(
            [trace.t_s, trace.omega_g_pu, trace.p_D_sent, trace.p_D_recv, trace.q_D_sent, trace.q_D_recv]
        )
        finite_nonzero = np.isfinite(v) & (v != 0)
        assert finite_nonzero.sum() > 100_000
        assert _csvfmt._mantissa(v)[2][finite_nonzero].all()


def test_default_trace_text_peak_memory(default_trace):
    """The 30 s default trace as one text peaks at no more than 5.6 MB;
    joining a list of one string per row into the same text peaked at about
    6.3 MB."""
    tracemalloc.start()
    try:
        text = default_trace.csv_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak <= 5.6e6, peak
