import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from podlab import _csvfmt
from podlab._csvfmt import format_rows


def _per_cell(header, *columns):
    return [header] + [",".join(f"{c[i]:.9g}" for c in columns) for i in range(len(columns[0]))]


class TestFormatRows:
    def test_edge_values_match_per_cell_format(self):
        x = np.array(
            [0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 5e-324, -2.5e-17, 123456789.5, 1e21,
             np.nan, np.inf, -np.inf, 1 / 3, 2.0**53 + 2, np.nextafter(0.1, 1.0)]
        )
        assert format_rows("a,b", x, x[::-1].copy()) == _per_cell("a,b", x, x[::-1])

    def test_rows_span_several_chunks(self):
        n = 2 * _csvfmt._CHUNK + 17
        rng = np.random.default_rng(3)
        cols = [np.arange(n) / 1000.0, rng.normal(size=n), rng.normal(scale=1e-5, size=n)]
        rows = format_rows("t,u,y", *cols)
        assert len(rows) == n + 1
        assert rows == _per_cell("t,u,y", *cols)

    def test_empty_columns_give_the_header(self):
        assert format_rows("t", np.empty(0)) == ["t"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    def test_any_float_matches_per_cell_format(self, values):
        x = np.array(values)
        assert format_rows("v,w", x, -x) == _per_cell("v,w", x, -x)
