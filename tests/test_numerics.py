"""numerics.worst: the one fold every residual check goes through."""

import math

import numpy as np
import pytest

from freequiver.numerics import worst


class TestWorst:
    def test_empty_is_zero(self):
        assert worst([]) == 0.0
        assert worst(v for v in ()) == 0.0

    def test_largest_value(self):
        assert worst([1e-12, 3e-9, 2e-10]) == 3e-9
        assert worst(np.array([0.5, 0.25])) == 0.5

    def test_ties(self):
        assert worst([2e-9, 2e-9]) == 2e-9
        assert worst([0.0, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("values", [
        [math.nan, 1e-9, 2e-9],
        [1e-9, math.nan, 2e-9],
        [1e-9, 2e-9, math.nan],
        [np.float64(1e-9), np.nan],
    ])
    def test_nan_anywhere_is_nan(self, values):
        assert math.isnan(worst(values))
        assert math.isnan(worst(iter(values)))

    def test_inf_is_a_value(self):
        assert worst([1e-9, math.inf, 2e-9]) == math.inf
