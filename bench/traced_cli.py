"""Run one ``cvqe`` CLI command in-process with the span tracer installed.

Usage: python3 bench/traced_cli.py SPANS.json -- <cvqe arguments...>

Exits with the CLI's own exit code after writing the spans and the list of
wrapped names that no longer exist to SPANS.json.
"""

import json
import sys

import tracer


def main() -> int:
    spans_path, separator, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json -- <cvqe arguments...>")
    spans = tracer.Tracer()
    missing = tracer.install(spans)
    import cvqe.cli

    code = cvqe.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"missing": missing, **spans.dump()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
