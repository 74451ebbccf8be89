"""The shared input rules: check_in's ranges and check_count's sizes."""
import math

import numpy as np
import pytest

from sgedr._arrays import MAX_ROWS, check_count, check_in


class TestCheckIn:
    @pytest.mark.parametrize("args, message", [
        (("dt", 0.0, 0.0), "dt must lie in (0.0, inf), got 0.0"),
        (("tau", -1.0, 0.0, math.inf, True), "tau must lie in [0.0, inf), got -1.0"),
        (("K_min", 0.5, 0.6, 1.0, True), "K_min must lie in [0.6, 1.0], got 0.5"),
        (("eps_sq", 4.5, 0, 4, True), "eps_sq must lie in [0, 4], got 4.5"),
        (("B1", math.nan), "B1 must lie in (-inf, inf), got nan"),
    ])
    def test_message_forms(self, args, message):
        with pytest.raises(ValueError) as info:
            check_in(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("closed", [False, True])
    def test_nan_and_inf_rejected_at_finite_high(self, x, closed):
        with pytest.raises(ValueError, match=r"^x must lie in "):
            check_in("x", x, 0, 4, closed=closed)

    def test_inf_rejected_at_infinite_closed_end(self):
        with pytest.raises(ValueError, match=r"^x must lie in \[0\.0, inf\), got inf$"):
            check_in("x", math.inf, 0.0, closed=True)

    def test_closed_ends_are_inside(self):
        check_in("x", np.array([0.0, 2.0, 4.0]), 0, 4, closed=True)
        with pytest.raises(ValueError, match=r"^x must lie in \(0, 4\), got 0\.0$"):
            check_in("x", np.array([2.0, 0.0, 4.0]), 0, 4)

    def test_names_first_bad_value_of_an_array(self):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 4\], got -1\.0$"):
            check_in("x", np.array([1.0, -1.0, np.nan, 5.0]), 0, 4, closed=True)

    def test_huge_int_is_named(self):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 4\], got 1000"):
            check_in("x", 10**400, 0, 4, closed=True)


class TestCheckCount:
    @pytest.mark.parametrize("n", [3, np.int64(3), 3.0, np.float32(3.0)])
    def test_whole_numbers_become_int(self, n):
        got = check_count("n", n, 1)
        assert got == 3 and type(got) is int

    def test_bounds_are_inside(self):
        assert check_count("n", 2, 2) == 2
        assert check_count("n", MAX_ROWS, 2) == MAX_ROWS
        assert check_count("n", 56, 1, 56) == 56

    # a bool is rejected although True == 1 lies in [1, MAX_ROWS]
    @pytest.mark.parametrize("n", [
        0, -1, MAX_ROWS + 1, 2.5, math.nan, math.inf, -math.inf, 1e20, 1e308,
        True, np.True_, "3", None,
    ])
    def test_rejects(self, n):
        with pytest.raises(ValueError) as info:
            check_count("n", n, 1)
        assert str(info.value) == f"n must be an integer in [1, {MAX_ROWS}], got {n}"

    def test_huge_int_is_named(self):
        # compared before float(), which raises OverflowError past 1e308
        with pytest.raises(ValueError) as info:
            check_count("n", 10**400, 1)
        assert str(info.value) == f"n must be an integer in [1, {MAX_ROWS}], got {10**400}"
