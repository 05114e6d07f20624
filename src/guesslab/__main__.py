"""``python -m guesslab``: the command line without the installed console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
