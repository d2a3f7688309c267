"""`python -m hurwitzcf`: the command-line front end, with its exit code."""

import sys

from .cli import main

sys.exit(main())
