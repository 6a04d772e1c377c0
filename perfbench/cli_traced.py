"""Run the meterfill CLI with every traced layer wrapped, for the traced run.

Usage: python3 perfbench/cli_traced.py SPANS_JSON <meterfill arguments...>

Times ``import meterfill.cli`` in this fresh interpreter, installs the
tracer, calls ``meterfill.cli.main`` with the remaining arguments, and
writes the import time and the spans to SPANS_JSON. Exits with main's code.
"""

import json
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import meterfill.cli

    import_s = time.perf_counter() - start

    import spans

    tracer = spans.Tracer("cli")
    tracer.install()
    try:
        code = meterfill.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(
                {"import_s": import_s, "installed": sorted(tracer.installed), "spans": tracer.spans},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
