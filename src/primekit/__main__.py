"""``python -m primekit``: the ``primekit`` command line from a source checkout."""

from .harness import main

raise SystemExit(main())
