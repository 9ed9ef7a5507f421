"""Run one cloverlie CLI command for the benchmark, optionally traced.

    python3 perfbench/launch.py SIDE_FILE TRACE_ID CLI_ARG...

TRACE_ID "-" runs the command untraced.  Before exiting, the launcher
writes SIDE_FILE (JSON): the monotonic time at which ``cloverlie.cli`` was
imported and the command line parsed, the path of the ``cloverlie``
package that ran, the numpy and mpmath versions, and, when traced, every
span of the command.  The exit code is the CLI's.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    side_path, trace_id, *cli_args = argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cloverlie
    from cloverlie import cli

    side = {
        "setup_end": None,
        "cloverlie": cloverlie.__file__,
        "numpy": sys.modules["numpy"].__version__,
        "mpmath": sys.modules["mpmath"].__version__,
    }
    build_parser = cli._build_parser

    def build_marking_parser():
        parser = build_parser()
        parse_args = parser.parse_args

        def parse_and_mark(*args, **kwargs):
            namespace = parse_args(*args, **kwargs)
            side["setup_end"] = time.monotonic()
            return namespace

        parser.parse_args = parse_and_mark
        return parser

    cli._build_parser = build_marking_parser
    tracer = None
    if trace_id != "-":
        from tracer import Tracer, cloverlie_modules

        tracer = Tracer(trace_id)
        tracer.install(cloverlie_modules())
        for name, handler in list(cli._COMMANDS.items()):
            cli._COMMANDS[name] = tracer.span(f"cli.{name}", handler)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            side["spans"] = tracer.finish()
        with open(side_path, "w") as fh:
            json.dump(side, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
