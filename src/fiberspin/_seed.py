"""The seed of the self-check suites, kept apart from validate.

validate imports numpy; the CLI reads this default for its parameter
table without importing either.
"""

DEFAULT_SEED = 1234
