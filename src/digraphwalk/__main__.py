"""``python -m digraphwalk``: the command-line interface of ``digraphwalk.cli``."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
