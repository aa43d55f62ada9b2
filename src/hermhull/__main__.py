"""``python -m hermhull``: the same front end as the ``hermhull`` script."""

from .cli import main

if __name__ == "__main__":
    main()
