"""Latency, throughput and correctness accounting for perfbench/run.py.

Pure functions over the load generator's records and the traced replay's
spans, kept apart from process handling so perfbench/test_accounting.py
can pin them down.

A record is one request as the load generator saw it (see
perfbench/src/loadgen.cc): phase, connection, stream index, kind code,
status, and the due / sent / received / decoded times in nanoseconds.
"""

import math
from collections import defaultdict, namedtuple

OK, ERR, BUSY, TIMEOUT, BROKEN = 0, 1, 2, 3, 4

# Stream codes -> query kind names used in metric names.
KINDS = {"w": "window", "d": "disk", "k": "knn", "s": "skyline", "v": "divknn"}
UPDATE_CODES = ("i", "x")

# A percentile is reported only when at least this many samples lie
# beyond it; below that it is not a measurement of the tail.
MIN_BEYOND = 10

Record = namedtuple(
    "Record", "phase conn idx code status due sent recv decoded bytes row")


def parse_records(text):
    """Returns (header dict, [Record]) from the load generator's output."""
    header, records = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            for field in line[1:].split():
                if "=" in field:
                    key, value = field.split("=", 1)
                    header[key] = value
            continue
        f = line.split()
        if len(f) != 11:
            continue
        records.append(Record(f[0], int(f[1]), int(f[2]), f[3], int(f[4]),
                              int(f[5]), int(f[6]), int(f[7]), int(f[8]),
                              int(f[9]), f[10]))
    return header, records


def percentile(values, p):
    """Nearest-rank p-quantile (0 < p < 1) of `values`, or None when fewer
    than MIN_BEYOND samples lie beyond it. Infinite values (failures) sort
    last, so enough of them make the percentile itself infinite."""
    n = len(values)
    rank = max(1, math.ceil(p * n - 1e-9))
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values):
    """Nearest-rank median; None for no values."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def due_latencies_us(records, codes):
    """Open-loop latencies in microseconds, timed from each request's due
    time (not its send time), for requests whose code is in `codes`. A
    request that failed, was refused or timed out counts as infinite."""
    out = []
    for r in records:
        if r.phase != "O" or r.code not in codes:
            continue
        if r.status != OK:
            out.append(math.inf)
        else:
            out.append((r.recv - r.due) / 1e3)
    return out


def generator_lags_us(records):
    """How late the open loop sent each request, in microseconds."""
    return [(r.sent - r.due) / 1e3 for r in records if r.phase == "O"]


def closed_loop_rates(records, win0, win1, per_slice=500, max_slices=10):
    """Completions per second in equal slices of [win0, win1) (ns), a
    window in which every connection is past its warm-up and still sending.
    The window is cut into as many slices as hold `per_slice` completions
    each (at least one, at most `max_slices`). run.py reports the median
    slice rate over all server instances, so a stall of the host moves one
    slice, not the result."""
    if win1 <= win0:
        return []
    done = [r.recv for r in records
            if r.phase == "C" and r.status == OK and win0 <= r.recv < win1]
    slices = max(1, min(max_slices, len(done) // per_slice))
    span = (win1 - win0) / slices
    counts = [0] * slices
    for t in done:
        counts[min(slices - 1, int((t - win0) // span))] += 1
    return [c / (span / 1e9) for c in counts]


def failures(records, phases=("O", "C")):
    """Requests of the measured phases that did not get an OK reply."""
    return sum(1 for r in records if r.phase in phases and r.status != OK)


def round_trips_us(records, phase="U"):
    """Send-to-reply times of one phase, keyed by stream index."""
    return {r.idx: (r.recv - r.sent) / 1e3 for r in records
            if r.phase == phase and r.status == OK}


class UpdateModel:
    """Sequential model of INSERT/DELETE replies. Benchmark-owned ids are
    disjoint per connection and a connection has one request outstanding
    at a time on the server, so applying each connection's updates in the
    order it sent them predicts every reply: INSERT answers 1 for an id not
    live (and makes it live), 0 otherwise; DELETE answers 1 for a live id
    (and removes it), 0 otherwise."""

    def __init__(self):
        self.live = {}  # id -> box tuple, for acknowledged inserts

    def apply(self, statement):
        """Applies one update statement; returns the expected reply row."""
        verb, oid, *box = statement.split()
        oid = int(oid)
        if verb.upper() == "INSERT":
            if oid in self.live:
                return "0"
            self.live[oid] = tuple(float(v) for v in box)
            return "1"
        if oid in self.live:
            del self.live[oid]
            return "1"
        return "0"

    def check(self, records, stream):
        """Feeds the update records (in each connection's send order) into
        the model. Returns the number of replies that disagree with it; a
        failed update counts as a disagreement, because the model can no
        longer know the state after it."""
        bad = 0
        by_conn = defaultdict(list)
        for r in records:
            if r.code in UPDATE_CODES:
                by_conn[r.conn].append(r)
        for conn in sorted(by_conn):
            for r in by_conn[conn]:
                expected = self.apply(stream[r.idx])
                if r.status != OK or r.row != expected:
                    bad += 1
        return bad


Span = namedtuple("Span", "req name parent start end")


def parse_spans(text):
    spans = []
    for line in text.splitlines():
        f = line.split()
        if len(f) == 5:
            spans.append(Span(int(f[0]), f[1], f[2], int(f[3]), int(f[4])))
    return spans


def self_times_us(spans):
    """Per span name, the list of self times in microseconds: a span's
    duration minus the durations of its children (spans of the same
    request whose parent is its name)."""
    by_req = defaultdict(list)
    for s in spans:
        by_req[s.req].append(s)
    out = defaultdict(list)
    for group in by_req.values():
        child = defaultdict(int)
        for s in group:
            if s.parent != "-":
                child[s.parent] += s.end - s.start
        for s in group:
            out[s.name].append((s.end - s.start - child[s.name]) / 1e3)
    return out


def durations_us(spans):
    """Per span name, the list of durations in microseconds."""
    out = defaultdict(list)
    for s in spans:
        out[s.name].append((s.end - s.start) / 1e3)
    return out

