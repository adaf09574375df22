"""Operation accounting and spans around calls into rhet's layers.

Every program call a workload makes goes through `Recorder.call`, which
counts it as attempted and, if it raises, as failed. With tracing on, the
same call also records a span (name, start, end, parent) and, for the
layers whose allocation peak is a metric, the peak of the memory
tracemalloc sees allocated during the call; numpy reports its buffers to
tracemalloc. Spans stay in memory until the run ends. `run_child` is the
one way the benchmark starts and times a child process.

A span is named after the per-layer metric it feeds: "estimator.tbar"
adds its duration to `estimator.tbar_s`, and the part before the dot names
the layer whose `peak_alloc_mb` it can raise.
"""
import contextlib
import os
import signal
import subprocess
import threading
import time
import tracemalloc
from collections import Counter


class OpFailed(Exception):
    """A program call raised; the rest of the pass is not attempted."""


class Recorder:
    """Counts one pass's program calls and, with trace on, records a span
    around each. Spans whose name starts with one of `alloc_spans` also
    record their allocation peak; tracemalloc runs only inside those, so
    the time of every other span (CSV formatting, child processes) is not
    slowed by it."""

    def __init__(self, trace, alloc_spans=()):
        self.trace = trace
        self.alloc_spans = tuple(alloc_spans)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.spans = []
        self.counts = Counter()
        self.excluded_s = 0.0
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.trace:
            yield
            return
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        alloc = name.startswith(self.alloc_spans) \
            and not tracemalloc.is_tracing()
        if alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            peak = None
            if alloc:
                peak = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            self._open.pop()
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": parent, "alloc_mb": peak})

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        except Exception as e:
            self.failed += 1
            self.errors.append(f"{name}: {type(e).__name__}: {e}")
            raise OpFailed(name) from e

    def count(self, name, k=1):
        self.counts[name] += k

    @contextlib.contextmanager
    def paused(self):
        """Exclude the enclosed block (a correctness check) from pass time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - start

    def layer_metrics(self, names):
        """Per-layer metrics of this recorder's spans and counts, restricted
        to `names`: `<span>_s` sums span durations, `<layer>.peak_alloc_mb`
        and `io.read_trace_alloc_mb` take the largest allocation peak."""
        out = {}
        for sp in self.spans:
            dur = sp["end"] - sp["start"]
            layer = sp["name"].split(".")[0]
            out[sp["name"] + "_s"] = out.get(sp["name"] + "_s", 0.0) + dur
            if sp["alloc_mb"] is None:
                continue
            for key in (layer + ".peak_alloc_mb", sp["name"] + "_alloc_mb"):
                out[key] = max(out.get(key, 0.0), sp["alloc_mb"])
        out.update(self.counts)
        return {k: float(v) for k, v in out.items() if k in names}


def run_child(argv, env, log, deadline=None, stdout=None):
    """Run `argv` to its end; return (exit code, wall s, peak RSS MB).

    stderr, and stdout unless a `stdout` path is given, go to the file
    `log`. With a `deadline` (a time.monotonic() value) the child runs in
    its own process group, and the group is killed at the deadline, which
    raises TimeoutError. Without one the child stays in the caller's group,
    so a caller killed at its own deadline takes the child with it. The
    peak RSS is the child's own, read from wait4.
    """
    with contextlib.ExitStack() as files:
        err = files.enter_context(open(log, "ab"))
        out = files.enter_context(open(stdout, "wb")) if stdout else err
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                start_new_session=deadline is not None)
        reaped = threading.Event()
        expired = threading.Event()

        def kill():
            with contextlib.suppress(ProcessLookupError):
                if deadline is None:
                    proc.kill()
                elif not reaped.is_set():
                    os.killpg(proc.pid, signal.SIGKILL)

        def expire():
            if not reaped.is_set():
                expired.set()
                kill()

        timer = None
        if deadline is not None:
            timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                    expire)
            timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            reaped.set()
            if timer is not None:
                timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if expired.is_set():
        raise TimeoutError(f"{argv[0]} killed at its deadline")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0
