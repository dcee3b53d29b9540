"""``python -m gatelearn``: the command-line front end without an installed script."""

from .cli import main

main()
