"""``python -m conical_gmt``: the ``conical-gmt`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
