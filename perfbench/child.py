"""One benchmarked `blindmfg` CLI run, in a fresh interpreter.

    python child.py RECORD.json TRACE -- <blindmfg CLI arguments>

Imports `blindmfg.cli`, loads the config as the CLI does, records the
process's CPU time so far (the end of set-up), then runs the CLI.  With TRACE = 1
the outside-in tracer wraps the package first and is removed again after
the run.  RECORD.json receives the set-up CPU time, the CLI's exit code,
the file the package was imported from and, when traced, the tracer's
raw record.  The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    record_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RECORD.json 0|1 -- <blindmfg args>")
    import blindmfg.cli as cli

    with open(cli_args[cli_args.index("--config") + 1]) as fh:
        json.load(fh)
    setup_cpu_s = time.process_time()

    record = {"setup_cpu_s": setup_cpu_s, "package_file": cli.__file__}
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        record["exit_code"] = cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.record()
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
