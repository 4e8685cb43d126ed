"""``python -m repro`` entry point."""

from repro.cli import entry

if __name__ == "__main__":
    entry()
