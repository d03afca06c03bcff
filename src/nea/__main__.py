"""``python -m nea``: the ``nea`` command."""

import sys

from .cli import main

sys.exit(main())
