"""Property-based tests for virtio-blk request-queue steering.

The contract every multi-queue block device leans on: any submission
key lands on a stable, in-range request queue, and a device without
queues is rejected.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.virtio.blk import blk_queue_for_request


@given(key=st.integers(min_value=0, max_value=2**48),
       n_queues=st.integers(min_value=1, max_value=128))
@settings(max_examples=100, deadline=None)
def test_blk_steering_in_range(key, n_queues):
    assert 0 <= blk_queue_for_request(key, n_queues) < n_queues
    with pytest.raises(ValueError):
        blk_queue_for_request(key, 0)
