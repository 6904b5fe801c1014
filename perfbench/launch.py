"""Run ``mixedhmc run`` in this fresh process and note when sampling runs.

    python3 launch.py MARKS_JSON MODE CLI_ARG...

MODE is one of:

- ``full``: run to the end, with the speed probes of ``speedmeter`` on;
- ``setup``: the same, but stop when the first chain is about to step, to
  time set-up alone;
- ``plain``: run to the end with no probes;
- ``trace``: ``plain`` with every layer wrapped by ``tracer.install``.

The marks are CLOCK_MONOTONIC readings, which the parent process compares
with its own. The peak resident memory is this process's ``VmHWM``: unlike
``ru_maxrss``, it does not count the memory of the parent that forked it.
Apart from the two readings around ``run_chains``, the probes and the memory
reading at the end, a run executes exactly the code the ``mixedhmc``
console script executes.
"""

import json
import re
import sys
import time


class _SetupDone(Exception):
    pass


def main() -> int:
    marks_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    # numpy, which the probes use, counts as part of the package's imports.
    marks = {"import_start": time.clock_gettime(time.CLOCK_MONOTONIC)}
    from speedmeter import SpeedMeter, clock
    meter = None
    if mode in ("full", "setup"):
        meter = SpeedMeter()
        meter.start()
    import mixedhmc.cli as cli
    marks["import_end"] = clock()

    tracer = None
    if mode == "trace":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    run_chains = cli.run_chains

    def marked_run_chains(*args, **kwargs):
        marks["sampling_start"] = clock()
        if mode == "setup":
            raise _SetupDone
        outputs = run_chains(*args, **kwargs)
        marks["sampling_end"] = clock()
        return outputs

    cli.run_chains = marked_run_chains
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    marks["end"] = clock()
    if meter is not None:
        meter.stop()

    with open("/proc/self/status") as fh:
        peak_kb = int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1))
    record = {"marks": marks, "peak_rss_kb": peak_kb}
    if meter is not None:
        record["probes"] = meter.probes
    if tracer is not None:
        record["trace"] = tracer.to_dict()
    with open(marks_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
