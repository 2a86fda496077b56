"""``python -m cohdasim``: the command line of ``cohdasim.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
