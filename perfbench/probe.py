"""One cold start: import hadperm, then run one op on the input read from stdin.

    python3 perfbench/probe.py <kind> < input

Prints the seconds from the first statement after reading the input to the
end of the op: the import of numpy and hadperm and the first op, without the
start of the interpreter.  ``run.py`` reports the median of many cold starts
as ``setup_s``.
"""

import sys
import time

TEXT = sys.stdin.read()
START = time.perf_counter()

import bootstrap  # noqa: E402

bootstrap.prepare()

import chains  # noqa: E402

chains.run(sys.argv[1], TEXT)
print(time.perf_counter() - START)
