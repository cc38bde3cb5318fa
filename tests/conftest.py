import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from fiberspin import NetworkParams


@pytest.fixture
def cli():
    """Run the installed CLI in a subprocess, returning raw bytes.

    The subprocess turns every warning into an error, as pyproject.toml's
    filterwarnings does in process, so a warning leaked to stderr fails.
    """

    def run(*args, env_extra=None):
        env = os.environ.copy()
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "fiberspin", *args],
            capture_output=True,
            env=env,
        )

    return run


@pytest.fixture
def unstack():
    """Split a stacked NetworkParams into one NetworkParams per set, in order."""

    def split(stack):
        fields = {f.name: getattr(stack, f.name) for f in dataclasses.fields(stack)}
        return [
            NetworkParams(**{k: v[i].item() if isinstance(v, np.ndarray) else v for k, v in fields.items()})
            for i in range(len(stack.gamma))
        ]

    return split
