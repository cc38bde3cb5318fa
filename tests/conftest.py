import os
import subprocess
import sys

import pytest


@pytest.fixture
def cli():
    """Run the installed CLI in a subprocess, returning raw bytes."""

    def run(*args, env_extra=None):
        env = os.environ.copy()
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "fiberspin", *args],
            capture_output=True,
            env=env,
        )

    return run
