"""``python -m qsteer``: the command line interface, runnable from a checkout
with ``PYTHONPATH=src`` and no install."""

import sys

from .cli import main

sys.exit(main())
