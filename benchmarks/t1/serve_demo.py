"""``repro serve`` with the demo flow's instrument registered.

Data providers are live objects that every serving process has to
register again, and the shipped ``serve`` command registers none — so
the one workload that imports instrument files (``demo_flow``) starts
the same command through this wrapper.  Everything else about the
process is ``repro.cli serve`` as shipped: the wrapper only hooks the
moment the command opens its deployment.
"""

from __future__ import annotations

import sys

import corpus

sys.path.insert(0, str(corpus.SRC))

from repro import cli  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    shipped_open = cli._open

    def open_with_provider(args, **options):
        system = shipped_open(args, **options)
        corpus.register_demo_provider(system)
        return system

    cli._open = open_with_provider
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
