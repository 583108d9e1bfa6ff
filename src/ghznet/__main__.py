"""`python -m ghznet`: the same command line as the `ghznet` script."""

import sys

from .cli import main

sys.exit(main())
