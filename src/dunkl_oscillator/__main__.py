"""Module entry point: delegate to the CLI's numpy-free entry."""

import sys

from .entry import main

if __name__ == "__main__":
    sys.exit(main())
