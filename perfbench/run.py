#!/usr/bin/env python3
"""The repository benchmark: tlp_serve as the default build produces it,
measured end to end over TCP, with a traced run that splits the time by
layer.

    python3 perfbench/run.py --workload mixed-read --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. It builds the default configuration
(Release, TLP_STATS=ON, TLP_SIMD=ON) of tlp_serve and tlp_snapshot, and
the benchmark's own perfbench_tool, under $CARGO_TARGET_DIR (default
.bench_build). Every run generates its inputs with src/datagen and
converts them with the tlp_snapshot / tlp_serve just built, so both sides
of a comparison read files their own code wrote. The datasets are fixed
(config.json "data_seed"), as the paper's TIGER files are; --seed draws
the request stream: query centres from data objects, sizes, kinds, and
the update sequence. A dataset drawn from --seed moved the closed-loop
qps of live-update by 3x between seeds, which no bound could absorb.

Workloads (perfbench/config.json has sizes, rates and the layer map):

  mixed-read   read-only --snapshot of TIGER-ROADS-like clustered MBRs;
               WINDOW, DISK, KNN, SKYLINE and DIVKNN in equal shares,
               centres drawn from data objects, WHERE on a third
  range-scan   read-only --snapshot of uniform fixed-area rectangles;
               WINDOW and DISK at 0.001% .. 0.1% of the domain
  live-update  tlp_serve --live --wal-dir restarted on a WAL directory
               (full snapshot + delta snapshots + logged tail) prepared
               from the mixed-read data; half INSERT/DELETE on
               benchmark-owned ids, half small WINDOW/DISK/KNN reads

Each run serves the inputs from config.json "instances" server processes
in turn. Each instance: start-up (setup_s is the median time from exec to
the first OK reply), a warm-up, an open loop at the workload's fixed rate
(latencies, timed from each request's due time), then a closed loop with
one request outstanding per connection (qps: the median completion rate
over slices of the all-connections-active window of every instance).
cpu_us_per_op is the server's user + system CPU time per request it
answered.

The JSON result carries the end_to_end metrics of BENCHMARK.json. Every
workload reports all of them, so a metric is gated only where it repeated
from run to run on every workload on a shared 4-vCPU virtual machine. qps
and the latencies (per-kind p50/p90, read and update p50/p99) did not:
they moved with the host rather than the code (range-scan qps by up to 2x
between runs), and are printed with their sample counts as diagnostics.

Then the outputs are checked:

  read-only    sampled replies equal, byte for byte, EvaluateQuery on the
               same snapshot in-process
  live-update  every update reply matches a sequential per-connection
               model; the base-object rows of sampled WINDOW/DISK replies
               match the read-only answer; after SIGKILL,
               `tlp_snapshot wal-replay` recovers the live count and digest
               of exactly the acknowledged writes

--trace 1 serves one instance and adds a traced repeat of its request
stream, an unloaded one-connection pass, and in-process replays that time
each layer's public entry points; it prints the per-layer metrics (and no
end-to-end metric). Every workload reports every layer, measured on its
own data: the read replay covers all five read kinds (a kind the workload
does not serve gets probes drawn with mixed-read's recipe), and read-only
workloads prepare a WAL directory from their snapshot for the concurrency
and wal replay.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exit status 0 when the run completed (whatever it measured),
1 when it could not run.
"""

import argparse
import copy
import json
import math
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import accounting as acc  # noqa: E402

CONFIG = json.load(open(os.path.join(HERE, "config.json")))
# The gated end-to-end metrics: BENCHMARK.json at the repository root.
MANIFEST = json.load(open(os.path.join(HERE, os.pardir, "BENCHMARK.json")))
GATED = [m["name"] for m in MANIFEST["end_to_end"]]
PER_LAYER = [m["name"] for m in MANIFEST["per_layer"]]
FAILURE_SENTINEL_US = 1e12  # an infinite percentile (failed requests)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Build


def run_logged(cmd, logfile):
    with open(logfile, "ab") as out:
        rc = subprocess.run(cmd, stdout=out,
                            stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(logfile, "rb") as f:
            tail = f.read()[-3000:].decode(errors="replace")
        raise BenchError("command failed (%d): %s\n%s" %
                         (rc, " ".join(cmd), tail))


def build(root, build_root):
    """Builds tlp_serve/tlp_snapshot from the repository's own top-level
    CMakeLists.txt with no options (the default build), and perfbench_tool
    from this package. Returns the three binary paths."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at %s: run from the repository "
                         "root" % root)
    os.makedirs(build_root, exist_ok=True)
    logfile = os.path.join(build_root, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    tlp_dir = os.path.join(build_root, "tlp")
    tool_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(tlp_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", tlp_dir], logfile)
    run_logged(["cmake", "--build", tlp_dir, "-j", jobs, "--target",
                "tlp_serve", "tlp_snapshot"], logfile)
    if not os.path.isfile(os.path.join(tool_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", tool_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], logfile)
    run_logged(["cmake", "--build", tool_dir, "-j", jobs, "--target",
                "perfbench_tool"], logfile)
    return (os.path.join(tlp_dir, "tools", "tlp_serve"),
            os.path.join(tlp_dir, "tools", "tlp_snapshot"),
            os.path.join(tool_dir, "perfbench_tool"))


# --------------------------------------------------------------------------
# Server processes


def request(port, statement, timeout=10.0):
    """One framed request on a fresh connection; returns the reply text."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        data = statement.encode()
        s.sendall(struct.pack("<I", len(data)) + data)
        buf = b""
        while len(buf) < 4 or len(buf) < 4 + struct.unpack("<I", buf[:4])[0]:
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("server closed the connection")
            buf += chunk
        return buf[4:4 + struct.unpack("<I", buf[:4])[0]].decode()


class Server:
    """A tlp_serve process started with the workload's flags."""

    PROBE = "SELECT WINDOW 0 0 0 0"

    def __init__(self, binary, args, workdir, name):
        self.port_file = os.path.join(workdir, name + ".port")
        self.log_path = os.path.join(workdir, name + ".log")
        self.args = [binary] + args + ["--port-file=" + self.port_file]
        self.proc = None
        self.port = None

    def start(self):
        """Starts the server; returns seconds from exec to its first OK
        reply (snapshot load or WAL recovery included)."""
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(self.log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.args, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        deadline = t0 + 120
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("tlp_serve exited with %d during start-up"
                                 % self.proc.returncode)
            if self.port is None and os.path.exists(self.port_file):
                self.port = int(open(self.port_file).read())
            if self.port is not None:
                try:
                    if request(self.port, self.PROBE).startswith("OK"):
                        return time.perf_counter() - t0
                except OSError:
                    pass
            time.sleep(0.0005)
        raise BenchError("tlp_serve did not answer within 120 s")

    def cpu_seconds(self):
        """User + system CPU time of all the server's threads so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for tlp_serve")

    def stop(self, sig):
        """Sends `sig` and waits; returns (exit code, log text)."""
        if self.proc is None:
            return None, ""
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self.log.close()
        self.proc = None
        return rc, open(self.log_path, errors="replace").read()


def exit_counters(log_text):
    for line in log_text.splitlines():
        if line.startswith("TLP_SERVE_COUNTERS "):
            return json.loads(line[len("TLP_SERVE_COUNTERS "):])
    return None


def wal_stats(port):
    rows = request(port, "WALSTATS").splitlines()[1:]
    return {k: int(v) for k, v in (row.split() for row in rows)}


def tagged_json(text, tag=None):
    """The JSON object on the line starting with `tag` (or with "{")."""
    prefix = tag + " " if tag else "{"
    for line in text.splitlines():
        if line.startswith(prefix):
            return json.loads(line[len(tag) + 1:] if tag else line)
    raise BenchError("no %s line in: %s" % (prefix, text[-500:]))


# --------------------------------------------------------------------------
# One run


class Run:
    def __init__(self, args, bins, workdir):
        self.args = args
        self.workload = args.workload
        self.cfg = CONFIG["workloads"][args.workload]
        self.serve_bin, self.snapshot_bin, self.tool = bins
        self.dir = workdir
        self.conns = CONFIG["conns"]
        self.servers = []
        self.checks = {}  # name -> passed
        self.diagnostics = {}  # printed per-layer figures, not reported
        self.check_failures = 0

    def path(self, name):
        return os.path.join(self.dir, name)

    def tool_run(self, sub, **flags):
        cmd = [self.tool, sub] + ["--%s=%s" % (k.replace("_", "-"), v)
                                  for k, v in flags.items()]
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        if res.returncode != 0:
            raise BenchError("perfbench_tool %s failed (%d): %s" %
                             (sub, res.returncode, res.stderr[-2000:]))
        return res.stdout

    def server(self, args, name):
        s = Server(self.serve_bin, args, self.dir, name)
        self.servers.append(s)
        return s

    def check(self, name, passed, detail=""):
        self.checks[name] = bool(passed)
        if not passed:
            self.check_failures += 1
            log("CHECK FAILED: %s %s" % (name, detail))

    # ---- inputs

    def generate(self):
        cfg = self.cfg
        self.tool_run("gen", workload=self.workload, seed=self.args.seed,
                      data_seed=CONFIG["data_seed"],
                      n=cfg["n"], requests=cfg["requests"], conns=self.conns,
                      prep=cfg["prep"], trace=cfg["trace_count"],
                      live=cfg.get("live", 0), out=self.dir)
        self.stream = [line.rstrip("\n").split("\t", 1)[1]
                       for line in open(self.path("stream.txt"))]
        run_logged([self.snapshot_bin, "save", self.path("snap.tlps"),
                    "--from-csv=" + self.path("data.csv"), "--kind=2layer"],
                   self.path("convert.log"))
        self.model = acc.UpdateModel()
        if self.workload == "live-update":
            self.prepare_wal()
        else:
            os.remove(self.path("data.csv"))
        # Write back everything set-up wrote now, not while the run
        # measures: background writeback competes with the server for the
        # disk (its fsyncs) and the CPU.
        os.sync()

    def prepare_wal(self):
        """Seeds a WAL directory from the snapshot, then logs the prep
        updates through a live server and kills it: a full snapshot, delta
        snapshots and a logged tail. Returns the server's WALSTATS before
        and after the prep updates."""
        seed_dir = self.path("wal-seed")
        os.makedirs(seed_dir)
        s = self.server(self.live_args(seed_dir), "prep")
        s.start()
        before = wal_stats(s.port)
        self.tool_run("load", mode="prep", port=s.port,
                      stream=self.path("prep.txt"), conns=self.conns,
                      out=self.path("prep-records.txt"))
        after = wal_stats(s.port)
        s.stop(signal.SIGKILL)
        prep = [line.rstrip("\n").split("\t", 1)[1]
                for line in open(self.path("prep.txt"))]
        _, records = acc.parse_records(
            open(self.path("prep-records.txt")).read())
        bad = self.model.check(records, prep)
        self.check("prep_updates", bad == 0 and len(records) == len(prep),
                   "%d of %d prep updates disagree" % (bad, len(prep)))
        return before, after

    def live_args(self, wal_dir):
        return ["--snapshot=" + self.path("snap.tlps"), "--live",
                "--wal-dir=" + wal_dir]

    def read_args(self):
        return ["--snapshot=" + self.path("snap.tlps")]

    # ---- server instances

    def start_instance(self, k):
        """Starts server instance k (live-update: on a fresh copy of the
        prepared WAL directory); returns (server, seconds from exec to the
        first OK reply)."""
        if self.workload == "live-update":
            wal_dir = self.path("wal-%d" % k)
            shutil.copytree(self.path("wal-seed"), wal_dir)
            args = self.live_args(wal_dir)
        else:
            wal_dir, args = None, self.read_args()
        server = self.server(args, "serve-%d" % k)
        server.wal_dir = wal_dir
        return server, server.start()

    # ---- load

    def load(self, port, tag, seconds, trace=False, start_cursor=0):
        out = self.path("records-%s.txt" % tag)
        self.tool_run(
            "load", mode="run", port=port, stream=self.path("stream.txt"),
            conns=self.conns, rate=self.cfg["rate"],
            warm_seconds=CONFIG["warm_seconds"],
            open_seconds=seconds * CONFIG["open_share"],
            closed_warm=CONFIG["closed_warm_seconds"],
            closed_seconds=seconds * (1 - CONFIG["open_share"]),
            timeout_ms=CONFIG["timeout_ms"],
            sample_every=self.cfg["sample_every"],
            wrap=0 if self.workload == "live-update" else 1,
            trace=int(trace), start_cursor=start_cursor, out=out,
            samples=self.path("samples-%s.bin" % tag))
        with open(self.path("samples.bin"), "ab") as all_samples:
            with open(self.path("samples-%s.bin" % tag), "rb") as f:
                shutil.copyfileobj(f, all_samples)
        header, records = acc.parse_records(open(out).read())
        return header, records

    def end_to_end(self, runs, quiet=False):
        """The end-to-end metrics over the load runs of the server
        instances, [(header, records)]: {name: (value, unit, samples)} for
        the metrics this workload's traffic has samples for."""
        m = {}
        rates = [rate for h, recs in runs for rate in acc.closed_loop_rates(
            recs, int(h["win0"]), int(h["win1"]))]
        if rates:
            m["qps"] = (statistics.median(rates), "ops/s",
                        sum(1 for _, recs in runs for r in recs
                            if r.phase == "C"))
        opens = [r for _, recs in runs for r in recs]

        def lat(name, codes, p):
            values = acc.due_latencies_us(opens, codes)
            if not values:
                return
            v = acc.percentile(values, p)
            if v is None:
                if not quiet:
                    log("%s: only %d samples, no %d-beyond tail" %
                        (name, len(values), acc.MIN_BEYOND))
                return
            m[name] = (FAILURE_SENTINEL_US if math.isinf(v) else v, "us",
                       len(values))

        reads = tuple(acc.KINDS)
        lat("read_p50_us", reads, 0.50)
        lat("read_p99_us", reads, 0.99)
        lat("window_p50_us", ("w",), 0.50)
        lat("window_p90_us", ("w",), 0.90)
        lat("disk_p50_us", ("d",), 0.50)
        lat("knn_p50_us", ("k",), 0.50)
        lat("knn_p90_us", ("k",), 0.90)
        lat("skyline_p50_us", ("s",), 0.50)
        lat("skyline_p90_us", ("s",), 0.90)
        lat("divknn_p50_us", ("v",), 0.50)
        lat("update_p50_us", acc.UPDATE_CODES, 0.50)
        lat("update_p99_us", acc.UPDATE_CODES, 0.99)
        return m

    def check_samples(self):
        flags = dict(snapshot=self.path("snap.tlps"),
                     stream=self.path("stream.txt"),
                     samples=self.path("samples.bin"))
        if self.workload == "live-update":
            # Ids from here up are benchmark-owned (perfbench/src/gen.cc).
            flags["base_below"] = 100000000
        res = tagged_json(self.tool_run("check", **flags), "CHECK")
        self.check("replies",
                   res["mismatches"] == 0 and res["checked"] > 0,
                   "%d of %d sampled replies differ" %
                   (res["mismatches"], res["checked"]))
        return res

    def check_durability(self, server, model):
        """SIGKILL, then an offline replay must hold exactly the base data
        plus the model's acknowledged writes."""
        server.stop(signal.SIGKILL)
        replay = tagged_json(
            subprocess.run([self.snapshot_bin, "wal-replay", server.wal_dir],
                           stdout=subprocess.PIPE, text=True,
                           check=True).stdout)
        with open(self.path("extra.txt"), "w") as f:
            for oid, box in sorted(model.live.items()):
                f.write("%d %r %r %r %r\n" % ((oid,) + box))
        want = tagged_json(self.tool_run("digest", csv=self.path("data.csv"),
                                         extra=self.path("extra.txt")),
                           "DIGEST")
        self.check("durability_%s" % os.path.basename(server.wal_dir),
                   replay["live_objects"] == want["live_objects"] and
                   replay["live_digest"] == want["live_digest"],
                   "wal-replay %s vs expected %s" % (replay, want))

    # ---- the run

    def execute(self):
        """Generates the inputs, then serves them from CONFIG["instances"]
        server processes in turn, each measured for an equal share of
        --seconds. A server's threads land on whichever cores are free when
        it starts, and on a shared host cores differ in speed by 10-20%;
        averaging over instances keeps that draw from deciding the run."""
        t0 = time.perf_counter()
        self.generate()
        log("inputs ready after %.1f s" % (time.perf_counter() - t0))
        live = self.workload == "live-update"
        # A traced run reports no end-to-end metric: it serves one
        # instance, for its traced repeat and the baseline it is held to.
        instances = 1 if self.args.trace else CONFIG["instances"]
        seconds = self.args.seconds / CONFIG["instances"]
        setup, rss, cpu, runs, cursor = [], [], [], [], 0
        attempted = failed = self.errors = self.busy = 0
        for k in range(instances):
            server, setup_s = self.start_instance(k)
            setup.append(setup_s)
            port = server.port
            os.sync()
            wal_before = wal_stats(port) if live else None
            cpu0 = server.cpu_seconds()
            header, records = self.load(port, "run%d" % k, seconds,
                                        start_cursor=cursor)
            served = sum(1 for r in records if r.status == acc.OK)
            cpu.append((server.cpu_seconds() - cpu0) * 1e6 / max(1, served))
            wal_after = wal_stats(port) if live else None
            cursor = max((r.idx // self.conns for r in records),
                         default=0) + 1
            runs.append((header, records))
            done = list(records)
            if self.args.trace and k == instances - 1:
                # The traced repeat and the unloaded pass run on the last
                # instance, after its measured run.
                _, t_records = traced = self.load(
                    port, "traced", seconds, trace=True,
                    start_cursor=cursor if live else 0)
                done += t_records
                self.traced_records = t_records
                self.last = dict(records=records,
                                 e2e=self.end_to_end([(header, records)],
                                                     quiet=True),
                                 traced_e2e=self.end_to_end([traced],
                                                            quiet=True),
                                 wal_before=wal_before, wal_after=wal_after)
                self.tool_run("load", mode="unloaded", port=port,
                              stream=self.path("trace.txt"),
                              count=self.cfg["trace_count"],
                              out=self.path("records-unloaded.txt"))
            rss.append(server.peak_rss_mb())
            attempted += sum(1 for r in done if r.phase in ("O", "C"))
            failed += acc.failures(done)
            if live:
                # SIGKILL leaves no exit counters: count the replies.
                self.errors += sum(1 for r in done if r.status == acc.ERR)
                self.busy += sum(1 for r in done if r.status == acc.BUSY)
                # Every instance starts from the prepared directory, so
                # from the model state the preparation left.
                model = copy.deepcopy(self.model)
                bad = model.check(done, self.stream)
                self.check("update_model_%d" % k, bad == 0,
                           "%d update replies disagree with the model" % bad)
                self.check_durability(server, model)
                shutil.rmtree(server.wal_dir)
            else:
                rc, text = server.stop(signal.SIGTERM)
                counters = exit_counters(text)
                self.check("graceful_exit_%d" % k,
                           rc == 0 and counters is not None,
                           "tlp_serve exit %s" % rc)
                if counters is not None:
                    self.errors += (counters["queries_error"] +
                                    counters["protocol_errors"])
                    self.busy += counters["busy_rejected"]
            log("instance %d done after %.1f s" %
                (k, time.perf_counter() - t0))
        self.check_samples()

        e2e = self.end_to_end(runs)
        e2e["setup_s"] = (acc.median(setup), "s", len(setup))
        e2e["rss_mb"] = (sum(rss) / len(rss), "MB", len(rss))
        e2e["cpu_us_per_op"] = (sum(cpu) / len(cpu), "us",
                                sum(len(recs) for _, recs in runs))
        log("setup_s samples: " + " ".join("%.4f" % t for t in setup))
        log("qps per instance: " + " ".join(
            "%.1f" % statistics.median(acc.closed_loop_rates(
                recs, int(h["win0"]), int(h["win1"]))) for h, recs in runs))
        reported, names = e2e, GATED
        if self.args.trace:
            reported = self.trace_layers(
                [r for _, recs in runs for r in recs])
            names = PER_LAYER
        missing = [n for n in names if reported.get(n, (None,))[0] is None]
        if missing:
            raise BenchError("no value for " + ", ".join(missing))
        return e2e, reported if self.args.trace else None, attempted, \
            failed + self.check_failures

    # ---- traced run: per-layer metrics

    def trace_layers(self, all_records):
        """Per-layer metrics from the last instance's traced repeat and
        unloaded pass, the in-process replays, and the servers' counters."""
        last = self.last
        e2e, t_e2e = last["e2e"], last["traced_e2e"]
        m = {}
        lags = acc.generator_lags_us(all_records + self.traced_records)
        m["bench.generator_lag_p90_us"] = (acc.percentile(lags, 0.90), "us")
        base = e2e.get("read_p50_us", e2e.get("update_p50_us"))[0]
        tr = t_e2e.get("read_p50_us", t_e2e.get("update_p50_us"))[0]
        m["bench.trace_overhead_pct"] = (100.0 * (tr - base) / base, "%")
        print("traced vs untraced end-to-end:")
        for name in sorted(e2e):
            if name in t_e2e:
                print("  %-16s %12.4f %12.4f %s" % (
                    name, e2e[name][0], t_e2e[name][0], e2e[name][1]))

        m["net.busy_rejected"] = (self.busy, "count")
        m["net.errors"] = (self.errors, "count")
        m.update(self.trace_reads(last["records"]))
        m.update(self.trace_live(last))
        return m

    def trace_reads(self, records):
        """persist, net and core: the in-process replay of trace.txt on the
        snapshot, the unloaded pass and the open loop's reads."""
        out = self.tool_run("trace", replay="read",
                            stream=self.path("trace.txt"),
                            snapshot=self.path("snap.tlps"),
                            count=self.cfg["trace_count"],
                            spans=self.path("spans.txt"),
                            counts=self.path("counts.txt"))
        res = tagged_json(out, "TRACE")
        m = {"persist.open_s": (res["persist.open_s"], "s")}
        counts = [line.split() for line in open(self.path("counts.txt"))]
        spans = acc.parse_spans(open(self.path("spans.txt")).read())
        dur = acc.durations_us(spans)
        # The net layer over the kinds this workload serves: the probes
        # only feed the core metrics of the kinds it does not.
        served = {r.code for r in records if r.phase == "O"} & set(acc.KINDS)
        code_of = {int(c[0]): c[1] for c in counts}
        net_spans = [s for s in spans if code_of.get(s.req) in served]
        self_us = acc.self_times_us(net_spans)
        net_dur = acc.durations_us(net_spans)
        m["net.parse_us"] = (acc.median(net_dur["net.parse"]), "us")
        m["net.eval_self_us"] = (acc.median(self_us["net.eval"]), "us")
        m["net.encode_us"] = (acc.median(net_dur["net.encode"]), "us")
        m["net.reply_bytes"] = (acc.median(
            [int(c[3]) for c in counts if c[1] in served]), "bytes")
        in_proc = {s.req: (s.end - s.start) / 1e3 for s in net_spans
                   if s.name == "net.request"}
        _, unloaded = acc.parse_records(
            open(self.path("records-unloaded.txt")).read())
        rtt = acc.round_trips_us(unloaded)
        paired = [rtt[i] - in_proc[i] for i in rtt if i in in_proc]
        m["net.transport_us"] = (acc.median(paired), "us")
        open_reads = acc.due_latencies_us(records, tuple(served))
        m["net.queue_us"] = (acc.median(open_reads) - acc.median(
            [rtt[r.idx] for r in unloaded
             if r.code in served and r.idx in rtt]), "us")
        for code in sorted(served):
            kind_rtt = [rtt[r.idx] for r in unloaded
                        if r.code == code and r.idx in rtt]
            self.diagnostics["net.queue.%s_us" % acc.KINDS[code]] = (
                acc.median(acc.due_latencies_us(records, (code,))) -
                acc.median(kind_rtt), "us")

        stats_on = res["stats_enabled"]
        posthoc = 0
        for code, kind in acc.KINDS.items():
            core = dur["core." + kind]
            m["core.%s_us" % kind] = (acc.median(core), "us")
            if kind in ("knn", "skyline"):
                m["core.%s_p90_us" % kind] = (acc.percentile(core, 0.90), "us")
            rows = [c for c in counts if c[1] == code]
            if stats_on:
                n_rows = sum(int(c[2]) for c in rows)
                scanned = sum(int(c[4]) for c in rows)
                m["core.%s.scanned_per_row" % kind] = (
                    scanned / max(1, n_rows), "ratio")
                m["core.%s.tiles" % kind] = (
                    sum(int(c[5]) for c in rows) / len(rows), "count")
                posthoc += sum(int(c[6]) for c in rows)
        if stats_on:
            m["core.posthoc_dedup"] = (posthoc, "count")
            self.check("posthoc_dedup", posthoc == 0,
                       "%d duplicates removed after the fact" % posthoc)
        return m

    def trace_live(self, last):
        """wal and concurrency: the in-process replay on a copy of a WAL
        directory prepared from this workload's snapshot. live-update
        replays its own stream, and its WAL counters cover the measured
        load; a read-only workload prepares the directory here, replays
        live.txt, and its WAL counters cover the prep updates."""
        if self.workload == "live-update":
            stream = "stream.txt"
            before, after = last["wal_before"], last["wal_after"]
        else:
            stream = "live.txt"
            before, after = self.prepare_wal()
        wal_copy = self.path("wal-trace")
        shutil.copytree(self.path("wal-seed"), wal_copy)
        out = self.tool_run("trace", replay="live",
                            stream=self.path(stream), wal_dir=wal_copy,
                            seconds=CONFIG["replay_seconds"],
                            spans=self.path("spans-live.txt"))
        shutil.rmtree(wal_copy)
        res = tagged_json(out, "TRACE")
        spans = acc.durations_us(acc.parse_spans(
            open(self.path("spans-live.txt")).read()))
        appends = after["appends"] - before["appends"]
        fsyncs = after["fsync_batches"] - before["fsync_batches"]
        logged = after["bytes_logged"] - before["bytes_logged"]
        return {
            "wal.recover_s": (res["wal.recover_s"], "s"),
            "wal.ops_per_fsync": (appends / max(1, fsyncs), "op/fsync"),
            "wal.bytes_per_op": (logged / max(1, appends), "B/op"),
            "concurrency.acquire_us": (
                acc.median(spans["concurrency.acquire"]), "us"),
            "concurrency.write_p50_us": (
                acc.median(spans["concurrency.write"]), "us"),
            "concurrency.write_p99_us": (
                acc.percentile(spans["concurrency.write"], 0.99), "us"),
            "concurrency.merges_per_kop": (
                res["concurrency.merges_per_kop"], "1/kop"),
            "concurrency.live_read_ratio": (
                acc.median(spans["concurrency.live_eval"]) /
                acc.median(spans["concurrency.readonly_eval"]), "ratio"),
        }

    def cleanup(self):
        for s in self.servers:
            if s.proc is not None:
                s.stop(signal.SIGKILL)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(CONFIG["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_root = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    run = None
    workdir = os.path.join(build_root, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        bins = build(root, build_root)
        os.makedirs(workdir)
        run = Run(args, bins, workdir)
        e2e, layers, attempted, failed = run.execute()
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        log("error: %s" % e)
        return 1
    finally:
        if run is not None:
            run.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)

    print("end-to-end (%s, seed %d, %.0f s):" %
          (args.workload, args.seed, args.seconds))
    for name in sorted(e2e):
        value, unit, samples = e2e[name]
        print("  %-16s %14.4f %-6s n=%-7d%s" % (
            name, value, unit, samples,
            "" if name in GATED else " diagnostic, not reported"))
    print("checks: " + ", ".join("%s=%s" % (k, "ok" if v else "FAILED")
                                 for k, v in sorted(run.checks.items())))
    if layers is not None:
        print("per-layer (traced run):")
        for name in sorted(layers):
            value, unit = layers[name]
            target = CONFIG["layers"][name]
            diagnostics = target.get("diagnostics", [])
            print("  %-32s %14.4f %-9s moves %s%s on %s" % (
                name, value, unit, ", ".join(target["moves"]) or "-",
                " [diagnostic: %s]" % ", ".join(diagnostics)
                if diagnostics else "", ", ".join(target["on"])))
        for name in sorted(run.diagnostics):
            value, unit = run.diagnostics[name]
            print("  %-32s %14.4f %-9s diagnostic, not reported" % (
                name, value, unit))
        metrics = {k: {"value": layers[k][0], "unit": layers[k][1]}
                   for k in PER_LAYER}
    else:
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()
                   if k in GATED}
    print(json.dumps({
        "correct": all(run.checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
