"""``python -m tailshift``: the same command line as the ``tailshift`` script."""

from .cli import cli_entry

cli_entry()
