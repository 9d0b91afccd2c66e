"""forkscan: check forked repositories for unapplied upstream security patches."""

import sys

__version__ = "0.1.0"


def warn(source: str, message: str) -> None:
    """Write one `WARNING <source>: <message>` line to stderr; source is
    the warning module's full name (`forkscan.<module>`)."""
    print(f"WARNING {source}: {message}", file=sys.stderr)
