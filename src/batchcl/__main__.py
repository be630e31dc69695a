"""``python -m batchcl``: the same command line as the ``batchcl`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
