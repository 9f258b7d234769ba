"""`python -m ifpca`: the command line without an installed entry point."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
