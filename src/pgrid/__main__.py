"""``python -m pgrid``: the ``pgrid`` command line."""

from .cli import main

main()
