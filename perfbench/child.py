"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json T_INVOKE_NS

``T_INVOKE_NS`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so start-up is part of the set-up time.  Every
timestamp in the result is on that clock.  A fresh process per repetition
matters: the zoo memoizes instances and reference oracles within a process,
and a user pays that set-up on every ``papc run``.
"""

import json
import os
import resource
import sys
import time


def _record_bytes(record):
    arrays = [record.ns, record.xs, record.vs, record.gammas, record.taus]
    if record.grad_gap_partial is not None:
        arrays.append(record.grad_gap_partial)
    for cp in record.checkpoints:
        arrays += [cp.x_avg, cp.v_avg]
    return sum(int(a.nbytes) for a in arrays)


def _environment():
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (info.get("name"), info.get("version"))
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "blas": blas,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(spec_path, result_path, t_invoke):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    # Start-up ends once the package is imported, front end included, so the
    # tracer finds every module's boundaries on every workload.
    import papc.cli  # noqa: F401
    t_import = time.monotonic_ns()

    import tracing
    import workloads

    tracer = None
    certs, record_bytes = [], []
    if spec["traced"]:
        tracer = tracing.Tracer(
            spec["rep"],
            observers={"linop.validate_tau": certs.append,
                       "solver.run": lambda rec: record_bytes.append(_record_bytes(rec)),
                       "composite.run_composite":
                           lambda rec: record_bytes.append(_record_bytes(rec))})
    first = tracing.FirstCall(tracing.RUN_LOOPS)
    try:
        exit_code, details, record = workloads.execute(spec)
    finally:
        t_end = time.monotonic_ns()
        first.restore()
        if tracer is not None:
            tracer.restore()

    result = {
        "exit_code": exit_code,
        "details": details,
        "t_invoke": t_invoke,
        "t_import": t_import,
        "t_first_iter": first.at,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": _environment(),
    }
    if tracer is not None:
        layers = tracing.analyse(tracer)
        layers["cli.startup_s"] = (t_import - t_invoke) * 1e-9
        layers["linop.power_iters"] = sum(c.iterations for c in certs) if certs else None
        layers["linop.cert_status"] = (max(tracing.CERT_CODES[c.status] for c in certs)
                                       if certs else None)
        layers["solver.record_mb"] = max(record_bytes) / 1e6 if record_bytes else None
        layers["solver.iters_to_tol"] = workloads.iters_to_tol(spec, record)
        result["layers"] = layers
        result["cert_statuses"] = [c.status for c in certs]
        result["absent"] = tracer.absent
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], int(sys.argv[3])))
