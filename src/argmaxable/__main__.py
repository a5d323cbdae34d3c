"""``python -m argmaxable``: the same entry point as the ``argmaxable``
console script."""

from .cli import main

main()
