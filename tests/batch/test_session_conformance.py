"""BatchSession input validation, held to the scalar OnlineSession.

The differential checks of BatchSession lanes against scalar sessions
live in tests/conformance/; these tests cover what a session refuses.
"""

import numpy as np
import pytest

from repro.batch import BatchSession
from repro.errors import SamplingError
from repro.monitor.online import OnlineSession
from tests.conftest import model_stream


class TestValidation:
    def test_needs_monitor_or_gpd(self):
        with pytest.raises(ValueError, match="binary"):
            BatchSession(binary=None, run_gpd=False)

    def test_feed_many_error_messages_match_scalar(self):
        model, _ = model_stream("181.mcf", 0.05, 25_000)
        scalar = OnlineSession(binary=model.binary)
        batch = BatchSession(binary=model.binary)
        lane = batch.add_lane()
        bad_batches = [np.zeros((2, 2), dtype=np.int64),
                       np.array([], dtype=np.int64),
                       np.array([1.5, 2.5])]
        for bad in bad_batches:
            with pytest.raises(SamplingError) as scalar_error:
                scalar.feed_many(bad)
            with pytest.raises(SamplingError) as lane_error:
                lane.feed_many(bad)
            assert str(scalar_error.value) == str(lane_error.value)
