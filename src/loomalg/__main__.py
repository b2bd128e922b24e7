"""`python -m loomalg`: the same entry point as the `loomalg` command."""

import sys

from .cli import main

sys.exit(main())
