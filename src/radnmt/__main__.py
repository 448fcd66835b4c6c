"""``python -m radnmt <command>``: the same command line as ``radnmt``."""

from .cli import main

if __name__ == "__main__":
    main()
