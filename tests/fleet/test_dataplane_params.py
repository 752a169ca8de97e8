"""DataplaneParams refuses bad values where they enter."""

from __future__ import annotations

import math

import pytest

from repro.errors import ReproError
from repro.fleet.dataplane import DataplaneParams


@pytest.mark.parametrize(
    "kwargs",
    [
        # A negative downtime recovers the host before it crashes, so
        # it never comes back.
        {"chaos_downtime": -1.0},
        {"chaos_downtime": math.nan},
        {"chaos_downtime": math.inf},
        {"duration": math.nan},
        {"duration": math.inf},
    ],
    ids=[
        "downtime-negative",
        "downtime-nan",
        "downtime-inf",
        "duration-nan",
        "duration-inf",
    ],
)
def test_rejects_bad_values(kwargs):
    with pytest.raises(ReproError, match="finite and > 0"):
        DataplaneParams(**kwargs)
