"""One sweep in a fresh process: set up clawforge as a CLI user's process
does, run each job through `clawforge.cli.main([..., "--json"])`, and print
one JSON line with the timings, the peak RSS and each job's exit code and
output.  Reads a JSON spec from stdin:

    {"jobs": [[arg, ...], ...], "trace": false, "spans_out": null}

With no jobs it measures set-up alone.  Run with `src` on PYTHONPATH."""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def main():
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    import clawforge.cli as cli
    from clawforge import corpus
    store = None
    if spec.get("trace"):
        import tracer
        store = tracer.SpanStore()
        tracer.install(store)
    corpus.builtin_models()
    setup_s = time.perf_counter() - t0

    jobs = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for job_id, argv in enumerate(spec["jobs"], start=1):
        if store is not None:
            store.current_job = job_id
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv) + ["--json"])
        except Exception as exc:    # a crash fails the job, not the sweep
            rc = f"{type(exc).__name__}: {exc}"
        jobs.append({"rc": rc, "stdout": buf.getvalue()})
    sweep_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for job in jobs:
        job["sha256"] = hashlib.sha256(job["stdout"].encode()).hexdigest()
    result = {"setup_s": setup_s, "sweep_s": sweep_s, "cpu_s": cpu_s,
              "rss_mb": rss_mb, "jobs": jobs}
    if store is not None:
        result["trace"] = store.summary()
        if spec.get("spans_out"):
            store.write_tsv(spec["spans_out"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
