"""Set-up work in a fresh interpreter, calibrated on the core it runs on.

    python3 bench/child.py probe            # import zgb, build its models
    python3 bench/child.py zgb <args...>    # zgb.cli.main(args), e.g. zeros

The parent times the child's whole life; samples the parent took meanwhile
would show the speed of the parent's core, not the child's.  So the child
calibrates itself (``hostspeed.py``): a probe before and after its work,
with the interpreter-bound kernel only, since importing numpy is part of
what a probe times; a ``zgb`` command from the timer, inside the work.
Its last stdout line is ``{"slowdowns": [[loop, array], ...],
"sampling_s": s}``; the lines before it are the command's own output.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import hostspeed  # noqa: E402  (stdlib only until its array kernel runs)


def main(argv: list[str]) -> int:
    speed = hostspeed.HostSpeed()
    start = time.perf_counter()
    if argv[0] == "probe":
        speed.sample(array=False)
        import zgb

        zgb.hardy_z(1000.0)  # the first RS call builds the C0..C3 models
        speed.sample(array=False)
        rc = 0
    else:
        from zgb import cli

        speed.sample()
        speed.start()
        try:
            rc = cli.main(argv[1:])
        finally:
            speed.stop()
        speed.sample()
    print(json.dumps({"slowdowns": [[py, arr] for _, _, py, arr in speed.samples],
                      "sampling_s": speed.sampling_s(start, time.perf_counter())}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
