"""Run one ``lexfit`` command with its layers traced, then write the spans.

Usage: python perfbench/traced_cli.py SPANS_JSON COMMAND_ID -- LEXFIT_ARGS...

The spans go to SPANS_JSON when the command ends, whatever its exit code.
"""

import sys

import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, command, lexfit_args = argv[0], argv[1], argv[3:]
    import lexfit.cli

    tracer = tracing.Tracer(command)
    tracer.install()
    try:
        return lexfit.cli.main(lexfit_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
