"""The ``primekit`` command: ``python -m primekit`` and the installed script."""

import sys


def main(argv=None) -> int:
    # importing the harness loads the kernel PRIMEKIT_BACKEND selects; a forced
    # kernel that is not built is a usage error, not a traceback that exits 1
    try:
        from .harness import main as run
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
