"""``python -m nhlattice ...``: the same command line as ``nhlattice``."""

import sys

from .cli import main

sys.exit(main())
