"""``python -m hybridnas``: the ``hybridnas`` command, without an install."""

from .cli import main

main()
