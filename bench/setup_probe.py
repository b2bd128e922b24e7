"""Set-up time of a fresh process, as every `loomalg run` pays it.

Reads one document from stdin, then times `import loomalg`, parsing the
document and building each of its declarations with the runner's
`_RunContext` (as `execute` does on first use), and prints the raw and
the normalized seconds (see speed.py).  Interpreter start-up and the
standard modules the speed meter imports load before the clock starts.

    python3 bench/setup_probe.py < document.loom
"""

import sys
from pathlib import Path

from speed import SpeedMeter


def main() -> int:
    text = sys.stdin.read()
    with SpeedMeter() as meter:
        started = meter.start()
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import loomalg
        from loomalg import runner

        document = loomalg.parse(text).document
        if document is None:
            print("setup_probe: the document does not parse", file=sys.stderr)
            return 1
        ctx = runner._RunContext(document, None, None)
        for name in document.decls:
            ctx.obj(name)
        raw, normalized = meter.stop(started)
    print(raw, normalized)
    return 0


if __name__ == "__main__":
    sys.exit(main())
