import numpy as np
import pytest

from smoothcure import NumericalError, kaplan_meier, make_scenario, plateau_fraction
from smoothcure.simulate import generate

from conftest import build_dataset


class TestKaplanMeier:
    def test_all_events_distinct_times(self):
        km = kaplan_meier(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, dtype=int))
        assert np.allclose(km.values, [3 / 4, 2 / 4, 1 / 4, 0.0])

    def test_hand_product(self):
        km = kaplan_meier(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 0, 1, 0]))
        assert km(3.0) == pytest.approx(0.375, abs=1e-15)
        assert km(2.9) == pytest.approx(0.75, abs=1e-15)

    def test_all_censored_is_one(self):
        km = kaplan_meier(np.array([1.0, 2.0]), np.zeros(2, dtype=int))
        assert km(0.0) == 1.0 and km(5.0) == 1.0

    def test_tie_aggregation(self):
        km = kaplan_meier(np.array([1.0, 1.0, 2.0]), np.array([1, 1, 0]))
        assert km(1.0) == pytest.approx(1 / 3)
        assert km.times.size == 1

    @pytest.mark.parametrize(
        "times",
        [
            pytest.param([], id="empty"),
            pytest.param([1.0, np.nan, 3.0], id="nan-time"),
            pytest.param([1.0, np.inf, 3.0], id="inf-time"),
        ],
    )
    def test_empty_rejected(self, times):
        # Empty or non-finite times are a typed error, never numpy's raw ValueError.
        deltas = np.array([1, 0, 1][: len(times)])
        with pytest.raises(NumericalError):
            kaplan_meier(np.array(times), deltas)

    def test_monotone_in_unit_interval(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 40))
            t = rng.exponential(1.0, n)
            d = (rng.random(n) < 0.6).astype(int)
            km = kaplan_meier(t, d)
            assert np.all(km.values >= 0) and np.all(km.values <= 1)
            assert np.all(np.diff(km.values) <= 1e-15)
            if km.times.size:
                assert km(km.times[0] - 1e-9) == 1.0


class TestPlateauFraction:
    def test_no_plateau(self):
        ds = build_dataset([1, 2, 3], [0, 0, 1])
        assert plateau_fraction(ds) == 0.0

    def test_two_thirds(self):
        ds = build_dataset([1, 2, 3], [1, 0, 0])
        assert plateau_fraction(ds) == pytest.approx(2 / 3)

    def test_model1_table_value_at_n10000(self):
        ds = generate(make_scenario("m1/s1/c1", n=10000), seed=2024)
        assert plateau_fraction(ds) == pytest.approx(0.15, abs=0.02)
