import numpy as np
import pytest

from smoothcure import NumericalError, ParseError, kaplan_meier, make_scenario, plateau_fraction
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
        "times,counts,error",
        [
            pytest.param([], None, NumericalError, id="empty"),
            pytest.param([1.0, np.nan, 3.0], None, NumericalError, id="nan-time"),
            pytest.param([1.0, np.inf, 3.0], None, NumericalError, id="inf-time"),
            pytest.param([1.0, 2.0, 3.0], [1, -2, 1], ParseError, id="negative-count"),
            pytest.param([1.0, 2.0, 3.0], [1.0, np.nan, 1.0], ParseError, id="nan-count"),
            pytest.param([1.0, 2.0, 3.0], [1, 0, 1], ParseError, id="zero-count"),
            pytest.param([1.0, 2.0, 3.0], [1.0, 0.5, 1.0], ParseError, id="fractional-count"),
            pytest.param([1.0, 2.0, 3.0], [1, 1], ParseError, id="short-counts"),
        ],
    )
    def test_empty_rejected(self, times, counts, error):
        # Empty or non-finite times, and counts that are not one positive
        # integer per time, are typed errors, never numpy's raw ValueError.
        deltas = np.array([1, 0, 1][: len(times)])
        with pytest.raises(error):
            kaplan_meier(np.array(times), deltas, None if counts is None else np.array(counts))

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
