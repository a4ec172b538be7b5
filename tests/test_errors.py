from fractions import Fraction

import numpy as np
import pytest

from gpqed.errors import InputError, check_int, check_number, check_seed


class TestCheckInt:
    @pytest.mark.parametrize("value", [2, pytest.param(10**400, id="1e400"),
                                       np.int64(2), np.uint8(2)])
    def test_integer_at_least_low_passes_unchanged(self, value):
        assert check_int("k", value, 2) is value

    @pytest.mark.parametrize("value", [
        1, pytest.param(-10**400, id="-1e400"), np.int64(1), True, False,
        np.True_, 2.0, 2.5, np.float64(2.0), Fraction(2), "2", None, [2]])
    def test_anything_else_is_the_error_named(self, value):
        with pytest.raises(InputError, match=r"^k must be an integer >= 2, "):
            check_int("k", value, 2)


class TestCheckNumber:
    @pytest.mark.parametrize("value", [
        0, -1.5, pytest.param(10**300, id="1e300"), np.float64(0.5),
        np.float32(0.5), np.float32(3e38), np.int64(-3), Fraction(1, 3),
        1.7976931348623157e308, -1.7976931348623157e308])
    def test_finite_real_passes_unchanged(self, value):
        assert check_number("x", value) is value

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), np.float32("inf"),
        np.float64("nan"), pytest.param(10**400, id="1e400"),
        pytest.param(-10**400, id="-1e400"),
        pytest.param(2**1024, id="2^1024"), True, np.False_, "0.5", None, 1j])
    def test_anything_else_is_the_error_named(self, value):
        with pytest.raises(InputError, match=r"^x must be a finite number, "):
            check_number("x", value)


class TestCheckSeed:
    @pytest.mark.parametrize("seed", [0, 7, np.uint32(3),
                                      np.random.SeedSequence(5)])
    def test_seed_numpy_takes_passes_unchanged(self, seed):
        assert check_seed(seed) is seed

    @pytest.mark.parametrize("seed", [-1, 1.5, True, False, "0", None])
    def test_anything_else_is_an_input_error(self, seed):
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            check_seed(seed)
