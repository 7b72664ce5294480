import os
import sys
from pathlib import Path

import pytest

# allow cross-module helpers (tests import fixtures from test_polymat)
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def cpus(request, monkeypatch):
    """Make ``request.param`` CPUs usable, through either lookup."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: request.param)
    return request.param
