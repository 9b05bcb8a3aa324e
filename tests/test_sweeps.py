"""Tests for seed sweeps."""

import pytest

from repro.common.errors import ConfigurationError
from repro.sim.sweeps import sweep_seeds
from repro.workloads.synthetic import SyntheticWorkloadConfig, generate_disjoint_workload

from sim_helpers import small_config


class TestSweeps:
    def factory(self, num_cores=2):
        def build(seed):
            workload = SyntheticWorkloadConfig(
                num_requests=80, address_range_size=1024, seed=seed
            )
            return generate_disjoint_workload(workload, list(range(num_cores)))

        return build

    def test_sweep_aggregates(self):
        config = small_config(num_cores=2)
        result = sweep_seeds(config, self.factory(), seeds=[1, 2, 3])
        assert len(result.observed_wcls) == 3
        assert result.max_observed_wcl == max(result.observed_wcls)
        assert result.wcl_spread >= 0
        assert result.mean_makespan > 0

    def test_check_failure_names_seed(self):
        config = small_config(num_cores=2)

        def check(report):
            assert report.observed_wcl() < 0, "impossible"

        with pytest.raises(AssertionError, match="seed 1"):
            sweep_seeds(config, self.factory(), seeds=[1], check=check)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_seeds(small_config(num_cores=2), self.factory(), seeds=[])
