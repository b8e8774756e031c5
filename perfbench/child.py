"""Run one semsec CLI call in a fresh interpreter and report what it cost.

Usage::

    python3 perfbench/child.py RESULT_JSON TRACE SPANS_NPZ -- CLI_ARG...

Set-up ends once ``semsec`` is imported and the run's preset or config file
is resolved; the timed part is the ``semsec.cli.main`` call. Both marks use
``time.monotonic``, which is system-wide, so the parent can subtract its
own spawn time. With TRACE=1 the semsec layers are wrapped by
``spans.instrument`` first, the span summary goes into the result, and the
raw spans are written to SPANS_NPZ.
"""

from __future__ import annotations

import json
import resource
import sys
import time

SOLVE = "rdf.TwoConstraintSolver.solve"
DRAW = "gaussian.draw_inner_samples"


def _observers(observed: dict) -> dict:
    solves = observed.setdefault("solves", [])
    reasons = observed.setdefault("reasons", [])

    def on_solve(point):
        solves.append([point.rate, point.dual_bound, bool(point.converged)])

    def on_draw(samples):
        import numpy as np

        reasons.append(np.bincount(samples["reason"].astype(int)).tolist())

    return {SOLVE: on_solve, DRAW: on_draw}


def main(argv: list[str]) -> int:
    result_path, trace, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE SPANS_NPZ -- CLI_ARG...")
    tracer, observed = None, {}
    if trace == "1":
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer, _observers(observed))
    from semsec import cli, config

    if "--preset" in cli_args:
        config.get_preset(cli_args[cli_args.index("--preset") + 1])
    elif "--config" in cli_args:
        config.load_config(cli_args[cli_args.index("--config") + 1])
    t_ready, cpu_ready = time.monotonic(), time.process_time()
    rc = cli.main(cli_args)
    t_done, cpu_done = time.monotonic(), time.process_time()
    result = {
        "rc": rc,
        "t_ready": t_ready,
        "t_done": t_done,
        "cpu_s": cpu_done - cpu_ready,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(per_call=(SOLVE,))
        result["observed"] = observed
        tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
