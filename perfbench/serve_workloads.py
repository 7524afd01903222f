"""The serve phase of every workload: ``repro serve`` over persistent HTTP.

The server runs as a child process in its default configuration (drift
monitor on, ``max_batch`` 256, ``max_wait_ms`` 2).  Load comes from
this process, with at most ``nproc`` sender threads, each holding one
stock ``http.client`` keep-alive connection: no per-request connects
and no socket options, so whatever the server's write pattern costs a
real keep-alive client shows up here too.

Every response is checked after the timed phase against a direct
``ModelTree.predict`` on the same rows, with the tree loaded from the
same registry the server reads.  A wrong, failed or refused answer is
a failure and an SLO miss.

The traced run boots the server with ``--events``, tags each request
with ``X-Repro-Trace`` and joins the server's stage timeline to the
client's send/receive times by that ID, using ``repro.obs`` readers.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from harness import Child, median, nproc, percentile, repro_argv

#: The server's own latency objective (``SloConfig.latency_threshold_s``).
SLO_S = 0.100
#: Rows in the payload pool.  Every 1-row request gets a row of its own.
POOL_ROWS = 4096
#: Cold boots per run; ``setup_s`` is their median.
BOOTS = 5
#: Untraced requests sent before timing, so lazy loads are done.
WARMUP_REQUESTS = 20
#: In a traced run, the untraced comparison phase is this share of it.
UNTRACED_SHARE = 0.25
#: Sender threads, each with one connection: at most ``nproc`` of them.
SENDERS = 2
#: A closed loop keeps sending past its deadline until this many
#: requests went out, so p99 always has ten samples beyond it; it gives
#: up ``OVERRUN_S`` after the deadline.
MIN_CLOSED_REQUESTS = 1100
OVERRUN_S = 30.0
REQUEST_TIMEOUT_S = 10.0
LISTEN_RE = re.compile(r"on http://([0-9.]+):(\d+)")


@dataclass(frozen=True)
class ServeSpec:
    mode: str  #: "closed" or "open"
    rows: int  #: rows per request
    #: The tail percentile reported: the highest whole one that the
    #: run's sample count leaves ten samples beyond.
    tail: int
    rate: float = 0.0  #: open loop: arrivals per second


SPECS = {
    # ~40 req/s while every request waits out the delayed-ACK stall,
    # far more once it is fixed.
    "serve_b64_closed": ServeSpec("closed", 64, tail=99),
    # The same loop with 1-row bodies: per-request fixed cost only.
    "serve_b1_closed": ServeSpec("closed", 1, tail=99),
    # Half of what two stalled senders carry (~40 req/s): no backlog
    # grows before or after the stall fix.  The 500 arrivals of a 25 s
    # serve phase support p98, not p99.
    "serve_b1_open": ServeSpec("open", 1, tail=98, rate=20.0),
}


class Payloads:
    """Seeded request bodies over a pool of distinct held-out rows.

    The pool is CPU2006 intervals generated under a seed of their own,
    so none of them was in the served model's training split, and they
    follow the training distribution (uniform-random rows would trip
    the drift detector mid-run).  Request ``i`` takes the next ``rows``
    entries of a stream of seeded pool permutations, so no two bodies
    of a run repeat.
    """

    def __init__(self, pool: np.ndarray, rows: int, seed: int) -> None:
        self.pool = pool
        self.rows = rows
        self._rng = np.random.default_rng(seed)
        self._row_json = [json.dumps(row) for row in pool.tolist()]
        self._order = np.empty(0, dtype=np.int64)
        self._lock = threading.Lock()

    def indices(self, i: int) -> np.ndarray:
        end = (i + 1) * self.rows
        with self._lock:
            while self._order.size < end:
                self._order = np.concatenate(
                    [self._order, self._rng.permutation(len(self.pool))]
                )
            return self._order[i * self.rows:end]

    def body(self, i: int) -> bytes:
        return self.encode(self.indices(i))

    def encode(self, indices) -> bytes:
        rows = ",".join(self._row_json[j] for j in indices)
        return ('{"instances": [' + rows + "]}").encode()


def make_pool(seed: int) -> np.ndarray:
    from repro.workloads.spec_cpu2006 import spec_cpu2006
    from repro.workloads.suite import SuiteGenerationConfig

    # A seed space disjoint from the experiment seeds (about 2e7).
    digest = hashlib.sha256(f"perfbench-pool-{seed}".encode()).digest()
    pool_seed = 2**40 + int.from_bytes(digest[:6], "big")
    data = spec_cpu2006().generate(
        SuiteGenerationConfig(total_samples=POOL_ROWS, seed=pool_seed)
    )
    return np.ascontiguousarray(data.X, dtype=float)


def predictions_match(raw: bytes, expected: np.ndarray, model_id: str) -> bool:
    """True only if the response carries exactly ``expected``, bit for bit.

    JSON floats round-trip doubles exactly, so any difference in the
    last bit of any prediction fails the request.
    """
    try:
        document = json.loads(raw)
        got = np.asarray(document["predictions"], dtype=np.float64)
    except (ValueError, KeyError, TypeError):
        return False
    return (
        document.get("model_id") == model_id
        and got.shape == expected.shape
        and bool(np.array_equal(got.view(np.uint64), expected.view(np.uint64)))
    )


@dataclass
class Sample:
    index: int
    scheduled: float  #: perf_counter the request was due (closed: = sent)
    sent: float
    received: float
    status: int  #: HTTP status, or 0 when the request never got one
    raw: bytes
    trace_id: Optional[str] = None
    correct: bool = False


def drive(port: int, ref: str, payloads: Payloads, spec: ServeSpec,
          seconds: float, seed: int, trace_prefix: Optional[str],
          min_requests: int = 0) -> List[Sample]:
    """Send load for ``seconds`` (a closed loop: and ``min_requests``);
    return one sample per request sent."""
    path = f"/v1/models/{ref}/predict"
    samples: List[Sample] = []
    lock = threading.Lock()
    counter = [0]
    start = time.perf_counter() + 0.05
    deadline = start + seconds
    if spec.mode == "open":
        # Poisson arrivals conditioned on their count: sorted uniform
        # times, exactly rate * seconds of them.
        rng = np.random.default_rng([seed, 0x0BE7])
        arrivals = np.sort(rng.uniform(0.0, seconds, int(round(spec.rate * seconds))))
        schedule = (start + arrivals).tolist()

    senders = min(SENDERS, nproc())

    def next_index(k: int) -> Iterator[int]:
        if spec.mode == "open":
            # Each sender owns every ``senders``-th arrival, as one
            # client of a pool would.
            yield from range(k, len(schedule), senders)
            return
        while True:
            now = time.perf_counter()
            with lock:
                i = counter[0]
                if now >= deadline and (i >= min_requests or now >= deadline + OVERRUN_S):
                    return
                counter[0] += 1
            yield i

    def sender(k: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            for i in next_index(k):
                if spec.mode == "open":
                    delay = schedule[i] - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                body = payloads.body(i)
                headers = {"Content-Type": "application/json"}
                trace_id = None
                if trace_prefix is not None:
                    trace_id = f"{trace_prefix}-{i}"
                    headers["X-Repro-Trace"] = trace_id
                sent = time.perf_counter()
                status, raw = 0, b""
                try:
                    conn.request("POST", path, body=body, headers=headers)
                    response = conn.getresponse()
                    raw = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()  # reconnects on the next request
                received = time.perf_counter()
                scheduled = schedule[i] if spec.mode == "open" else sent
                sample = Sample(i, scheduled, sent, received, status, raw, trace_id)
                with lock:
                    samples.append(sample)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, args=(k,), name=f"sender-{k}")
               for k in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + OVERRUN_S + REQUEST_TIMEOUT_S + 30.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    samples.sort(key=lambda s: s.index)
    return samples


def verify(samples: List[Sample], payloads: Payloads, tree, model_id: str) -> None:
    for sample in samples:
        if sample.status == 200:
            rows = payloads.pool[payloads.indices(sample.index)]
            sample.correct = predictions_match(sample.raw, tree.predict(rows), model_id)
        sample.raw = b""


def fetch(port: int, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape(port: int) -> Dict[str, float]:
    """Unlabelled samples of ``/metrics`` (absent instruments read 0)."""
    status, raw = fetch(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    values: Dict[str, float] = {}
    for line in raw.decode().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


class Server:
    """One ``repro serve`` child and what its boot cost."""

    def __init__(self, registry: Path, events: Optional[Path] = None) -> None:
        argv = repro_argv("serve", "--registry", str(registry), "--port", "0")
        if events is not None:
            argv += ["--events", str(events)]
        self.child = Child(argv, stderr=subprocess.PIPE)
        try:
            match = self.child.read_line_matching(LISTEN_RE, timeout_s=60.0)
        except BaseException:
            self.kill()
            raise
        self.listening = time.perf_counter()
        self.port = int(match.group(2))

    def stop(self) -> None:
        """Drain and exit, so the event log is flushed and closed."""
        if self.child.stop() != 0:
            raise RuntimeError(f"server exited with {self.child.exit_code}")

    def kill(self) -> None:
        """For a server whose boot was all that was measured."""
        self.child.stop(signal.SIGKILL)


class ServeRun:
    def __init__(self, spec: ServeSpec, seed: int, workdir: Path) -> None:
        from repro.serve.registry import ModelRegistry

        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.registry = workdir / "registry"
        publish = Child(repro_argv("publish", "cpu2006", "--scale", "0.1",
                                   "--registry", str(self.registry)))
        if publish.wait(120.0) != 0:
            raise RuntimeError("repro publish failed")
        record, self.tree = ModelRegistry(self.registry).load("latest")
        self.model_id = record.model_id
        self.payloads = Payloads(make_pool(seed), spec.rows, seed)
        self.failed_ops = 0
        self.attempted_ops = 0

    # -- set-up ----------------------------------------------------------

    def boot_once(self) -> Tuple[float, float, float]:
        """Spawn -> listening -> first correct answer, then stop."""
        server = Server(self.registry)
        try:
            try:
                status, raw = fetch(server.port, "/v1/models/latest/predict",
                                    self.payloads.body(0))
            except (OSError, http.client.HTTPException):
                status, raw = 0, b""
            answered = time.perf_counter()
            rows = self.payloads.pool[self.payloads.indices(0)]
            ok = status == 200 and predictions_match(raw, self.tree.predict(rows),
                                                     self.model_id)
        finally:
            server.kill()
        self.attempted_ops += 1
        if not ok:
            self.failed_ops += 1
        started = server.child.started
        return answered - started, server.listening - started, answered - server.listening

    def boots(self) -> Dict[str, float]:
        times = [self.boot_once() for _ in range(BOOTS)]
        return {
            "setup_s": median([t[0] for t in times]),
            "boot_to_listen_s": median([t[1] for t in times]),
            "first_predict_s": median([t[2] for t in times]),
        }

    # -- measurement -----------------------------------------------------

    def measure(self, seconds: float, traced: bool,
                min_requests: int = MIN_CLOSED_REQUESTS) -> Dict[str, object]:
        events = self.workdir / "events.jsonl" if traced else None
        server = Server(self.registry, events)
        try:
            for i in range(WARMUP_REQUESTS):
                rows = np.arange(i * self.spec.rows, (i + 1) * self.spec.rows)
                fetch(server.port, "/v1/models/latest/predict",
                      self.payloads.encode(rows % POOL_ROWS))
            before = scrape(server.port)
            samples = drive(server.port, "latest", self.payloads, self.spec,
                            seconds, self.seed, "pb" if traced else None,
                            min_requests)
            after = scrape(server.port)
        finally:
            server.stop()
        verify(samples, self.payloads, self.tree, self.model_id)
        self.attempted_ops += len(samples)
        self.failed_ops += sum(not s.correct for s in samples)
        counts = {name: after.get(name, 0.0) - before.get(name, 0.0)
                  for name in set(after) | set(before)}
        return {"samples": samples, "counts": counts,
                "rss_mb": server.child.maxrss_mb, "events": events}


def end_to_end(run: ServeRun, measured: Dict[str, object],
               boots: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    samples: List[Sample] = measured["samples"]
    latency = [s.received - s.scheduled for s in samples if s.correct]
    span = max(s.received for s in samples) - min(s.scheduled for s in samples)
    correct = sum(s.correct for s in samples)
    in_slo = sum(1 for s in samples if s.correct and s.received - s.scheduled <= SLO_S)
    return {
        "setup_s": (boots["setup_s"], "s"),
        "throughput_rows_per_s": (correct * run.spec.rows / span, "rows/s"),
        "latency_p50_ms": (percentile(latency, 0.50) * 1e3, "ms"),
        f"latency_p{run.spec.tail}_ms": (percentile(latency, run.spec.tail / 100) * 1e3, "ms"),
        "slo_attainment": (in_slo / len(samples), "share"),
        "serve_peak_rss_mb": (measured["rss_mb"], "MB"),
    }


#: Server stage -> per-layer metric, in request order.
STAGES = (
    ("decode", "serve.api.decode_ms_p50"),
    ("validate", "serve.engine.validate_ms_p50"),
    ("queue_wait", "serve.engine.queue_wait_ms_p50"),
    ("batch_assembly", "serve.engine.batch_assembly_ms_p50"),
    ("kernel", "mtree.compiled.kernel_ms_p50"),
    ("respond", "serve.api.respond_ms_p50"),
)


def waterfall(run: ServeRun, measured: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: client samples joined to server stage timelines."""
    from repro.obs.telemetry import load_trace

    samples: List[Sample] = measured["samples"]
    views = load_trace(measured["events"])
    joined = []
    for sample in samples:
        view = views.get(sample.trace_id)
        if sample.correct and view is not None and view.duration_s is not None:
            joined.append((sample, view.stage_seconds(), view.duration_s))
    if not joined:
        raise RuntimeError("no request joined to a server trace")
    ms = 1e3
    metrics: Dict[str, Tuple[float, str]] = {}
    for stage, name in STAGES:
        metrics[name] = (percentile([st.get(stage, 0.0) for _, st, _ in joined], 0.5) * ms, "ms")
    drift = [st["drift_observe"] for _, st, _ in joined if "drift_observe" in st]
    if drift:
        metrics["drift.observe_ms_p50"] = (percentile(drift, 0.5) * ms, "ms")
    client = [s.received - s.sent for s, _, _ in joined]
    server = [http for _, _, http in joined]
    residual = [c - h for c, h in zip(client, server)]
    staged = [sum(st.get(stage, 0.0) for stage, _ in STAGES) for _, st, _ in joined]
    metrics["serve.http.server_ms_p50"] = (percentile(server, 0.5) * ms, "ms")
    metrics["serve.http.unattributed_ms_p50"] = (
        percentile([h - s for h, s in zip(server, staged)], 0.5) * ms, "ms")
    metrics["net.residual_ms_p50"] = (percentile(residual, 0.5) * ms, "ms")
    tail = run.spec.tail
    metrics[f"net.residual_ms_p{tail}"] = (percentile(residual, tail / 100) * ms, "ms")
    metrics["serve.trace_coverage"] = (
        median([s / c for s, c in zip(staged, client)]), "share")
    metrics["serve.trace_joined"] = (len(joined) / len(samples), "share")
    if run.spec.mode == "open":
        lag = [s.sent - s.scheduled for s in samples]
        metrics[f"loadbench.send_lag_ms_p{tail}"] = (percentile(lag, tail / 100) * ms, "ms")
    counts = measured["counts"]
    prefix = "repro_serve_"
    for key in ("engine_batches", "http_responses_4xx", "http_responses_5xx",
                "engine_errors"):
        metrics["serve." + key.replace("_", ".", 1)] = (counts.get(prefix + key, 0.0), "count")
    for key in ("batch_requests", "batch_rows"):
        total = counts.get(f"{prefix}engine_{key}_sum", 0.0)
        n = counts.get(f"{prefix}engine_{key}_count", 0.0)
        metrics[f"serve.engine.{key}_mean"] = (total / n if n else 0.0, "count")
    return metrics


def run(workload: str, seed: int, seconds: float, traced: bool,
        workdir: Path) -> Tuple[Dict[str, Tuple[float, str]], int, int]:
    serve_run = ServeRun(SPECS[workload], seed, workdir)
    boots = serve_run.boots()
    if not traced:
        metrics = end_to_end(serve_run, serve_run.measure(seconds, False), boots)
    else:
        # The comparison phase needs only a p50, not the closed
        # loop's minimum count.
        plain = serve_run.measure(seconds * UNTRACED_SHARE, False, min_requests=0)
        tagged = serve_run.measure(seconds, True)
        metrics = waterfall(serve_run, tagged)
        metrics["serve.boot_to_listen_s"] = (boots["boot_to_listen_s"], "s")
        metrics["serve.first_predict_s"] = (boots["first_predict_s"], "s")

        def p50(m):
            return percentile([s.received - s.scheduled for s in m["samples"]
                               if s.correct], 0.5)

        metrics["trace.serve_overhead_pct"] = ((p50(tagged) / p50(plain) - 1.0) * 100, "%")
    return metrics, serve_run.attempted_ops, serve_run.failed_ops
