"""Run the cyclochar entry point in this process with timing wrappers
installed, then write the spans to stderr on one line that starts with
workloads.TRACE_MARK.

Usage: python3 perfbench/cli_child.py <cyclochar arguments...>
(with the checkout's src/ on PYTHONPATH).
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import cyclochar.cli
    import_s = time.perf_counter() - t0

    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import json
    import tracing
    from workloads import TRACE_MARK

    tracer = tracing.Tracer()
    with tracer:
        code = cyclochar.cli.main(sys.argv[1:])
    sys.stdout.flush()
    out = tracer.export()
    out["import_s"] = import_s
    print(TRACE_MARK + json.dumps(out), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
