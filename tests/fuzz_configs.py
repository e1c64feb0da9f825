"""Long, unseeded run of the config fuzz in test_configs.py.

    PYTHONPATH=src python3 tests/fuzz_configs.py --examples 5000

The test suite runs test_fuzzed_configs_exit_cleanly on 150
derandomised examples.  This script drives the same test, with the same
strategy, through hypothesis' fuzz_one_input on fresh random bytes, one
example at a time, so that a finding is counted rather than shrunk and
the run goes on.  Each example runs under a CPU-time alarm on this
process (ITIMER_PROF).  It prints each finding with the bytes that
replay it, then the counts: examples run, examples hypothesis rejected
as too short, tracebacks (any exception out of an example: a raise in
the CLI, a warning, which the suite also turns into an error, an exit
that is not 0, 2 or 3, or an exit 2 that names no field) and examples
over the alarm.  It exits 1 when it found anything.  pytest does not
collect this file.
"""

import argparse
import contextlib
import io
import random
import signal
import sys
import traceback
import warnings

from test_configs import test_fuzzed_configs_exit_cleanly


ALARM_S = 10.0  # CPU seconds one example may take
BUFFER_BYTES = 1024  # random bytes drawn for one example; none ran short


class OverAlarm(Exception):
    """Raised in an example that used up its CPU-time alarm."""


def _on_alarm(signum, frame):
    raise OverAlarm()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=5000)
    args = parser.parse_args(argv)

    warnings.simplefilter("error")
    signal.signal(signal.SIGPROF, _on_alarm)
    fuzz = test_fuzzed_configs_exit_cleanly.hypothesis.fuzz_one_input
    rng = random.Random()
    rejected = tracebacks = over_alarm = 0
    for i in range(args.examples):
        buffer = rng.randbytes(BUFFER_BYTES)
        try:
            # the CLI prints its findings; only this script's report is shown
            with contextlib.redirect_stdout(io.StringIO()):
                signal.setitimer(signal.ITIMER_PROF, ALARM_S)
                try:
                    replay = fuzz(buffer)
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
        except OverAlarm:
            over_alarm += 1
            print(f"example {i}: over the {ALARM_S:g} s alarm, bytes {buffer.hex()}")
            continue
        except Exception:  # every raise is a finding
            tracebacks += 1
            print(f"example {i}: bytes {buffer.hex()}\n{traceback.format_exc()}")
            continue
        rejected += replay is None
    print(f"examples {args.examples}, rejected {rejected}, "
          f"tracebacks {tracebacks}, over alarm {over_alarm}")
    return 1 if tracebacks or over_alarm else 0


if __name__ == "__main__":
    sys.exit(main())
