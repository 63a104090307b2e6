"""One measured program run: ``gdcscan.cli.main(argv)`` in a fresh process.

Usage: python3 child.py {plain|trace} REPORT_JSON -- GDCSCAN_ARGV...

``plain`` wraps only the entry of ``run_scan`` (or ``simulate_null``) in
``gdcscan.cli`` to take one timestamp, the end of set-up. ``trace`` wraps
every layer boundary listed in ``layers.instrument`` and writes the spans.
All times are ``time.monotonic()``, the clock the parent reads too. The
report is written only when the program returns 0.
"""

from __future__ import annotations

import json
import sys
import time


def peak_rss_kb() -> int:
    """This process's own peak RSS (VmHWM). ``ru_maxrss`` is not used:
    across exec it keeps the high-water mark of the launching process."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    mode, report_path, sep, *program_argv = argv
    if mode not in ("plain", "trace") or sep != "--":
        raise SystemExit(__doc__)
    report = {}

    if mode == "trace":
        from layers import instrument
        from spans import Tracer

        tracer = Tracer()
        span = tracer.open("proc.import")
        import gdcscan.cli as cli

        tracer.close(span)
        instrument(tracer)
        span = tracer.open("cli.main")
        code = cli.main(program_argv)
        tracer.close(span)
        report["spans"] = tracer.spans
        report["counters"] = dict(tracer.counters)
    else:
        import gdcscan.cli as cli

        entry = "run_scan" if program_argv[0] == "scan" else "simulate_null"
        target = getattr(cli, entry)

        def entered(*args, **kwargs):
            report.setdefault("t_entry", time.monotonic())
            return target(*args, **kwargs)

        setattr(cli, entry, entered)
        code = cli.main(program_argv)
    report["t_done"] = time.monotonic()
    if code != 0:
        return code
    from gdcscan import backend

    report["backend"] = backend.BACKEND_NAME
    report["peak_rss_kb"] = peak_rss_kb()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
