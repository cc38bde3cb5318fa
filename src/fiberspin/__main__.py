"""`python -m fiberspin`: the same process entry point as the installed `fiberspin` script, cli.run."""

from .cli import run

run()
