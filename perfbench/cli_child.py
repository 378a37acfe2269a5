"""One ``steklovem`` command-line invocation in a fresh interpreter.

    python3 cli_child.py [--trace-out FILE] -- <steklovem arguments>

Runs ``steklovem.cli.main`` in this process, as the installed
``steklovem`` script does, and exits with its code.  With ``--trace-out``
the layer spans of the call are recorded and written to FILE as JSON.
The caller puts the package's ``src`` directory on ``PYTHONPATH``.
"""

import json
import sys

import spans


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    trace_out = opts[opts.index("--trace-out") + 1] if "--trace-out" in opts else None

    from steklovem import cli

    if trace_out is None:
        return cli.main(cli_args)
    rec = spans.Recorder()
    with spans.patched(rec):
        code = cli.main(cli_args)
    with open(trace_out, "w") as fh:
        json.dump(rec.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
