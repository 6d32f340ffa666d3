import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from occloc.channel import (
    LinkState,
    SensorNoiseModel,
    lambertian_order,
    mimo_output,
    pixel_ebn0,
    snir,
)
from occloc.modem import ook_ber_theoretical


def q_function(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


class TestLambertianOrder:
    def test_60_degrees_is_unity(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_20_degrees(self):
        # -ln 2 / ln(cos 20 deg) = 11.1434...
        assert lambertian_order(20.0) == pytest.approx(11.1434, abs=1e-3)

    def test_45_degrees(self):
        assert lambertian_order(45.0) == pytest.approx(2.0, abs=0.01)

    def test_domain(self):
        for bad in (0.0, 90.0, -5.0, 95.0):
            with pytest.raises(ValueError):
                lambertian_order(bad)

    @given(st.floats(min_value=1.0, max_value=89.0))
    def test_half_power_definition(self, theta):
        m = lambertian_order(theta)
        assert math.cos(math.radians(theta)) ** m == pytest.approx(0.5, abs=1e-9)


class TestPixelEbn0:
    def test_zero_signal(self):
        assert pixel_ebn0(SensorNoiseModel(1.0, 5.0, 0.5, 0.0)) == 0.0

    def test_no_signal_dependent_noise(self):
        noise = SensorNoiseModel(0.0, 2.0, 0.25, 4.0)
        assert pixel_ebn0(noise) == pytest.approx(16.0 * 0.25 / 2.0)

    def test_worked_example(self):
        assert pixel_ebn0(SensorNoiseModel(1.0, 5.0, 0.5, 10.0)) == pytest.approx(5.0)


class TestSnir:
    def test_fully_distorted(self):
        assert snir(LinkState(10.0, 0.0, 4.0, 1)) == 0.0

    def test_no_distortion(self):
        assert snir(LinkState(10.0, 1.0, 4.0, 1)) == pytest.approx(100.0 / 4.0)

    def test_worked_example(self):
        assert snir(LinkState(2.0, 0.5, 4.0, 1)) == pytest.approx(1.0 / 3.0)

    @given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.02, max_value=1.0))
    def test_monotone_in_sigma(self, sig, dsig):
        lo = snir(LinkState(5.0, sig * (1 - dsig), 4.0, 1))
        hi = snir(LinkState(5.0, sig, 4.0, 1))
        assert hi >= lo

    @given(st.floats(min_value=0.1, max_value=50.0), st.floats(min_value=1.01, max_value=4.0))
    def test_monotone_in_p_avg(self, p, factor):
        lo = snir(LinkState(p, 0.5, 4.0, 1))
        hi = snir(LinkState(p * factor, 0.5, 4.0, 1))
        assert hi >= lo


class TestMimoOutput:
    def test_all_zero(self):
        assert mimo_output([1.0, 2.0], [0.0, 0.0], 0.7, 0.0) == 0.0

    def test_single_link(self):
        assert mimo_output([1.0], [1.0], 0.5, 0.0) == 0.5

    def test_dot_product(self):
        assert mimo_output([1.0, 2.0], [3.0, 4.0], 1.0, 0.5) == pytest.approx(11.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mimo_output([1.0, 2.0], [3.0], 1.0, 0.0)


class TestOokBerTheoretical:
    """The analytic error curve over the pixel channel's SNIR."""

    def test_zero_snir(self):
        assert ook_ber_theoretical(0.0) == pytest.approx(0.5)

    def test_snir_nine(self):
        assert ook_ber_theoretical(9.0) == pytest.approx(q_function(3.0), abs=1e-12)
        assert ook_ber_theoretical(9.0) == pytest.approx(1.3499e-3, abs=1e-7)

    def test_snir_four(self):
        assert ook_ber_theoretical(4.0) == pytest.approx(2.275e-2, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ook_ber_theoretical(-0.1)

    def test_strictly_decreasing_and_bounded(self):
        grid = np.linspace(0.0, 40.0, 200)
        vals = [ook_ber_theoretical(v) for v in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 0.5 for v in vals)


class TestValidation:
    def test_link_state_sigma_range(self):
        with pytest.raises(ValueError):
            LinkState(1.0, 1.5, 1.0, 1)

    def test_noise_model_ranges(self):
        with pytest.raises(ValueError):
            SensorNoiseModel(-1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            SensorNoiseModel(0.0, 1.0, 0.0, 1.0)
