"""``python -m esskit``: the ``esskit`` command."""

from .cli import main

if __name__ == "__main__":
    main()
