"""`python -m tsallisq`: the same command line as the tsallisq console script."""

from .cli import entry

entry()
