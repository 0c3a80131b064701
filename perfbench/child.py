"""Run one ``martin`` invocation the way the console script does.

    python3 child.py [--spans FILE] -- ARGV...

Without ``--spans`` this is exactly ``martin ARGV...``.  With it, the layer
wrappers from ``tracing`` are installed first and the spans are written to
FILE as JSON when ``cli.main`` returns, so traced and untraced invocations
have the same process shape.
"""

import json
import sys


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if spans_path is None:
        from martinlevels import cli
        return cli.main(argv)

    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from martinlevels import cli
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w") as f:
            f.write(json.dumps({"spans": tracer.spans, "missing": tracer.missing}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
