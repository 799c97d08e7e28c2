import numpy as np
import pytest

from flagcrash.errors import DataError
from flagcrash.ingest import log_returns
from flagcrash.synth import Episode, make_synthetic, parse_episode_spec


class TestMakeSynthetic:
    def test_zero_episodes_pure_noise(self):
        table, events = make_synthetic(5, 100, [], seed=1)
        assert table.shape == (100, 5)
        assert events.events == []
        rm = log_returns(table)
        assert abs(float(rm.returns.mean())) < 0.005
        assert 0.005 < float(rm.returns.std()) < 0.02

    def test_full_coupling_episode_correlates_near_one(self):
        table, _ = make_synthetic(6, 200, [Episode(50, 30, 1.0)], seed=2)
        rm = log_returns(table)
        block = rm.returns[50:80]
        corr = np.corrcoef(block.T)
        off = corr[~np.eye(6, dtype=bool)]
        assert (off > 0.95).all()

    def test_partial_coupling_raises_correlation(self):
        table, _ = make_synthetic(6, 300, [Episode(100, 40, 0.8)], seed=3)
        rm = log_returns(table)
        stressed = np.corrcoef(rm.returns[100:140].T)
        calm = np.corrcoef(rm.returns[0:40].T)
        mask = ~np.eye(6, dtype=bool)
        assert stressed[mask].mean() > calm[mask].mean() + 0.5

    def test_event_date_is_last_stressed_return_date(self):
        table, events = make_synthetic(4, 60, [Episode(10, 5, 0.9)], seed=4)
        rm = log_returns(table)
        # return rows 10..14 are stressed; row 14 carries price date index 15
        assert events.events[0].resolved_date() == table.dates[15]
        assert events.events[0].resolved_date() == rm.dates[14]

    def test_seed_reproducible(self):
        a, _ = make_synthetic(5, 80, [Episode(10, 10, 0.7)], seed=42)
        b, _ = make_synthetic(5, 80, [Episode(10, 10, 0.7)], seed=42)
        assert np.array_equal(a.prices, b.prices)

    def test_prices_reconstruct_from_returns(self):
        table, _ = make_synthetic(3, 50, [], seed=5)
        rm = log_returns(table)
        rebuilt = table.prices[0] * np.exp(np.cumsum(rm.returns, axis=0))
        np.testing.assert_allclose(rebuilt, table.prices[1:], rtol=1e-12)

    def test_overlapping_episodes_rejected(self):
        with pytest.raises(DataError, match="overlap"):
            make_synthetic(4, 100, [Episode(10, 20, 0.5), Episode(25, 10, 0.5)], 1)

    def test_out_of_range_episode_rejected(self):
        with pytest.raises(DataError, match="outside"):
            make_synthetic(4, 50, [Episode(40, 20, 0.5)], 1)

    def test_bad_coupling_rejected(self):
        with pytest.raises(DataError, match="coupling"):
            make_synthetic(4, 50, [Episode(5, 5, 1.5)], 1)


def test_parse_episode_spec():
    eps = parse_episode_spec("10:20:0.8, 50:5:1.0")
    assert eps == [Episode(10, 20, 0.8), Episode(50, 5, 1.0)]
    assert parse_episode_spec("") == []
    with pytest.raises(DataError):
        parse_episode_spec("10:20")


@pytest.mark.parametrize("spec", ["a:b:c", "1:x:0.5", "1:2:abc", "1.5:2:0.5"])
def test_malformed_episode_spec_is_a_data_error(spec):
    with pytest.raises(DataError, match=f"bad episode spec '{spec}'"):
        parse_episode_spec(f"10:20:0.8,{spec}")
