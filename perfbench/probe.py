"""Time `import cyclochar` and a workload's set-up in this fresh interpreter.

Usage: python3 perfbench/probe.py <workload> <seed>
Prints one JSON line: {"import_s": ..., "setup_s": ...}.  Only `sys` and
`time` are loaded before the import is timed; generating the inputs is
bench work and is left out of both figures.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    from pathlib import Path
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import cyclochar.cli  # noqa: F401  (the whole library, as the entry point loads it)
    import_s = time.perf_counter() - t0

    sys.path.insert(0, str(here))
    import workloads
    wl = workloads.WORKLOADS[sys.argv[1]]
    first = wl.block(int(sys.argv[2]), 0)
    t1 = time.perf_counter()
    workloads.load_library()
    wl.setup(first)
    setup_s = import_s + time.perf_counter() - t1

    import json
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
