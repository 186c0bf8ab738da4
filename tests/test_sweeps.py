import numpy as np
import pytest

from procfair.datasets import SyntheticConfig, generate_synthetic, standardized_split
from procfair.models import TrainConfig, fit_logistic
from procfair.sweeps import sweep_pair_count, sweep_sensitive_weight

FAST = dict(background_size=20, n_permutations=100)


@pytest.fixture(scope="module")
def split():
    dataset = generate_synthetic(SyntheticConfig(m=800, n_advantaged=480, seed=0))
    return standardized_split(dataset, 0.8, 0)[0]


def test_sensitive_weight_sweep_accepts_generators(split):
    config = TrainConfig(epochs=30, seed=0)
    _, listed = sweep_sensitive_weight(split, [0.0, 3.0], [1, 2], config, n=20, **FAST)
    _, generated = sweep_sensitive_weight(split, [0.0, 3.0], (s for s in [1, 2]), config, n=20, **FAST)
    np.testing.assert_array_equal(generated, listed)


def test_pair_count_sweep_accepts_generators(split):
    model, _ = fit_logistic(split.train, TrainConfig(epochs=30, seed=0))
    listed = sweep_pair_count(model, split, [10, 20], [1, 2], **FAST)
    generated = sweep_pair_count(model, split, (n for n in [10, 20]), (s for s in [1, 2]), **FAST)
    np.testing.assert_array_equal(generated, listed)
