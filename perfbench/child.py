"""One benchmark child: the biarcs CLI, run with the given arguments.

    python3 child.py FD TRACE_PATH ARG...

Right after `import biarcs.cli` returns, the child writes the CLOCK_MONOTONIC
time and the imported package's path to the inherited pipe FD, so the parent
can split the child's wall time into set-up and compute. It then runs
`biarcs.cli.main(ARG...)` and exits with its code.

With TRACE_PATH other than "-", the public functions of the biarcs modules are
wrapped by span recorders first (see tracer.py), and the spans are written to
TRACE_PATH as JSON after main returns.
"""

import os
import sys
import time


def main() -> int:
    fd, trace_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import biarcs.cli

    import_s = time.perf_counter() - start
    os.write(fd, f"{time.monotonic()!r} {biarcs.__file__}\n".encode())
    os.close(fd)
    if trace_path == "-":
        return biarcs.cli.main(argv)

    import tracer

    recorder = tracer.instrument()
    code = biarcs.cli.main(argv)
    recorder.dump(trace_path, import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
