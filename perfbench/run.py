#!/usr/bin/env python3
"""Benchmark of the uwbams simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload ber_exact --seed 1 --seconds 15 \
        --trace 0

Builds the repository and the traced-run program from perfbench/CMakeLists.txt
into $CARGO_TARGET_DIR (default .bench_build), runs one workload through the
shipped uwbams_run / uwbams_serve binaries, checks every output, and prints as
the last line of standard output one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of perfbench_probe with --trace 1.

Workloads: ber_exact, ber_stat (Fig. 6 co-simulation, both exactness tiers),
netscale (netscale_static at full scale over a warm surrogate) and serve (a
closed loop of clients against one uwbams_serve).
"""
import argparse
import collections
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
WORKLOADS = ("ber_exact", "ber_stat", "netscale", "serve")

# Scenario seed of the Fig. 6 and netscale workloads: the CI seed. Their work
# depends on the seed (early-stopped BER points, the calibrated surrogate),
# so it stays fixed and the runs repeat; see README.md.
SCENARIO_SEED = 1
# The ideal BER curve must follow the Gaussian-approximation theory within
# this relative tolerance, beyond its own 95% Wilson interval.
THEORY_TOL = 0.30
MIN_AVAILABILITY = 0.95
MAX_RMSE_M = 1.75
SETUP_REPEATS = 3
PREPARE_REPEATS = 41

# (scenario, seed) pairs whose own acceptance checks fail at --scale=fast
# (rebuild with perfbench/failure_table.py). The serve workload requests the
# pairs of seeds 1-16 every round; new keys draw their seeds from 1-64 minus
# every failing pair.
KNOWN_FAILING = (
    ("twr_clock", 4), ("twr_clock", 7), ("twr_clock", 8), ("twr_clock", 11),
    ("twr_clock", 12), ("twr_clock", 15),
    ("ranging_network", 2), ("ranging_network", 3), ("ranging_network", 6),
    ("ranging_network", 14),
    ("channel_class_sweep", 12),
)
FAILING_1_64 = set(KNOWN_FAILING) | {
    ("twr_clock", s) for s in (19, 23, 30, 31, 35, 36, 37, 39, 40, 43, 44, 46,
                               48, 51, 52, 53, 54, 55, 57, 59, 60, 62)} | {
    ("ranging_network", s) for s in (17, 22, 23, 33, 36, 39, 40, 42, 48, 50,
                                     54, 56, 58)} | {
    ("channel_class_sweep", 37), ("channel_class_sweep", 60)}
SEED_POOL = range(1, 65)
# First requests of a round, across the coex, mc and ranging groups. Five of
# the twelve are mc_itd, so the median computed request is an mc_itd one
# (two cheaper scenarios, five dearer) whatever seeds are drawn.
SERVE_MIX = ("mc_itd",) * 5 + (
    "multiuser_ber", "yield_report", "coex_ber", "corner_ber",
    "channel_class_sweep", "ranging_network", "twr_clock")
WARM_SCENARIOS = ("quickstart", "fig4_ac", "mc_itd", "coex_ber",
                  "multiuser_ber", "yield_report")
BURST_SCENARIO = "corner_ber"
HITS_PER_STEP = 240  # per computing request, sent by one hit client
CLIENTS = max(2, min(4, NPROC))
# The server's pool leaves one core to the request threads: with every core
# in the pool, the p99 of hit latency measured the scheduler (1-3 ms).
SERVER_JOBS = max(1, NPROC - 1)
SAMPLED_KEYS = 2  # keys re-run in batch per serve run

RESPONSE_TAIL = b',"schema":"uwbams-serve-v1","status":"ok","wall_seconds":'


class BenchError(Exception):
    """The benchmark cannot run (build failure, missing sources)."""


def log(msg):
    print(msg, flush=True)


# ----------------------------------------------------------------- build

def build_dir():
    return os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures and builds the repository and perfbench_probe; returns the
    paths of the three binaries."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no repository sources next to perfbench/")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(NPROC), "--target",
                  "uwbams_run", "uwbams_serve_bin", "perfbench_probe"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))
    return {"run": os.path.join(bdir, "uwbams", "uwbams_run"),
            "serve": os.path.join(bdir, "uwbams", "uwbams_serve"),
            "probe": os.path.join(bdir, "perfbench_probe")}


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def host_record(bins):
    cache = {}
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                k, v = line.rstrip("\n").split("=", 1)
                cache[k.split(":")[0]] = v
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()[:1]
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    flags = ""
    with open(os.path.join(build_dir(), "uwbams", "CMakeFiles",
                           "uwbams_spice.dir", "flags.make")) as f:
        for line in f:
            if line.startswith("CXX_FLAGS = "):
                flags = line.split("=", 1)[1].strip()
    rev = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() or None
    return {
        "nproc": NPROC,
        "cpu": model,
        "compiler": version[0] if version else cxx,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": flags,
        # The benchmark's checkout is not always a git repository; the
        # uwbams_run digest then identifies the code.
        "git_rev": rev,
        "uwbams_run_sha256": file_digest(bins["run"])[:16],
    }


# ------------------------------------------------------- child processes

Proc = collections.namedtuple("Proc", "rc wall cpu rss_mb out")


def run_timed(argv, work, env_extra=None, timeout=150):
    """Runs argv to completion; host wall time from spawn to exit, and the
    child's own CPU time and peak RSS from wait4()."""
    env = dict(os.environ)
    env.update(env_extra or {})
    out_path = os.path.join(work, "child.log")
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                             env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout, p.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0, text)


def timed_rounds(seconds, round_fn):
    """Runs whole rounds until their summed durations reach `seconds`. Time
    metrics take the best round (min-of-N): noise on a shared host only ever
    slows a round down."""
    rounds, spent = [], 0.0
    while spent < seconds:
        rounds.append(round_fn(len(rounds)))
        spent += rounds[-1]["wall"]
    return rounds


# ------------------------------------------------------------ Fig. 6 checks

def wilson(k, n, z=1.959963984540054):
    if n == 0:
        return 0.0, 1.0
    p = k / n
    d = 1.0 + z * z / n
    c = (p + z * z / (2 * n)) / d
    h = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / d
    return max(0.0, c - h), min(1.0, c + h)


def energy_detection_theory(ebn0_db, tw):
    """Pe = Q(r / sqrt(2r + 2M)), r = Eb/N0, M = time-bandwidth product."""
    r = 10.0 ** (ebn0_db / 10.0)
    return 0.5 * math.erfc(r / math.sqrt(2 * r + 2 * tw) / math.sqrt(2.0))


def parse_fig6_points(text):
    rows = list(csv.reader(io.StringIO(text)))
    return [{"ebn0": float(r[0]), "ideal": (int(r[4]), int(r[3])),
             "eldo": (int(r[6]), int(r[5]))} for r in rows[1:]]


def check_fig6(points, tw, quarantined):
    """Properties of Fig. 6 the method must have; returns the violations."""
    bad = []
    if quarantined:
        bad.append(f"{quarantined} point(s) quarantined")
    for curve in ("ideal", "eldo"):
        for p in points:
            if p[curve][1] == 0:
                bad.append(f"{curve}@{p['ebn0']:g}dB has no bits")
        for a, b in zip(points, points[1:]):
            if wilson(*b[curve])[0] > wilson(*a[curve])[1]:
                bad.append(f"{curve} BER rises significantly from "
                           f"{a['ebn0']:g} to {b['ebn0']:g} dB")
    for p in points:
        lo_i, hi_i = wilson(*p["ideal"])
        lo_e, hi_e = wilson(*p["eldo"])
        if lo_i > hi_e or lo_e > hi_i:
            bad.append(f"ideal and SPICE curves disjoint at {p['ebn0']:g} dB")
        th = energy_detection_theory(p["ebn0"], tw)
        if lo_i > th * (1 + THEORY_TOL) or hi_i < th * (1 - THEORY_TOL):
            bad.append(f"ideal BER at {p['ebn0']:g} dB [{lo_i:.3g}, {hi_i:.3g}]"
                       f" misses theory {th:.3g}")
    return bad


# --------------------------------------------------------- netscale checks

def check_netscale(positions_text, rounds_text):
    """Recomputes every tag error and each round's availability and RMSE
    from the coordinates; returns the violations."""
    bad = []
    per_round = {}
    lines = positions_text.splitlines()
    if not lines or not lines[0].startswith("round,tag,true_x"):
        return ["positions.csv header missing"]
    for line in lines[1:]:
        f = line.split(",")
        rnd, solved = int(f[0]), f[8] == "1"
        st = per_round.setdefault(rnd, [0, 0, 0.0])
        st[0] += 1
        if not solved:
            continue
        err = math.hypot(float(f[4]) - float(f[2]), float(f[5]) - float(f[3]))
        if abs(err - float(f[6])) > 1e-5:
            if len(bad) < 5:
                bad.append(f"round {rnd} tag {f[1]}: err_m {f[6]} but "
                           f"coordinates give {err:.6f}")
        st[1] += 1
        st[2] += err * err
    reported = list(csv.DictReader(io.StringIO(rounds_text)))
    if len(reported) != len(per_round):
        bad.append(f"{len(reported)} rounds reported, {len(per_round)} in "
                   "positions.csv")
    for row in reported:
        rnd = int(row["round"])
        if rnd not in per_round:
            bad.append(f"round {rnd} missing from positions.csv")
            continue
        tags, solved, err2 = per_round[rnd]
        avail = solved / tags
        rmse = math.sqrt(err2 / solved) if solved else float("inf")
        if int(row["solved"]) != solved:
            bad.append(f"round {rnd}: solved {row['solved']} vs {solved}")
        if abs(avail - float(row["avail"])) > 1e-4:
            bad.append(f"round {rnd}: availability {row['avail']} vs "
                       f"{avail:.6f}")
        if abs(rmse - float(row["rmse_m"])) > 1e-4:
            bad.append(f"round {rnd}: RMSE {row['rmse_m']} vs {rmse:.6f}")
        if avail < MIN_AVAILABILITY:
            bad.append(f"round {rnd}: availability {avail:.4f} < "
                       f"{MIN_AVAILABILITY}")
        if rmse > MAX_RMSE_M:
            bad.append(f"round {rnd}: RMSE {rmse:.3f} m > {MAX_RMSE_M} m")
    return bad


# ----------------------------------------------------------- fig6 workloads

def read(path):
    with open(path) as f:
        return f.read()


def prepare_setup(bins, work):
    """Process start plus circuit preparation, repeated; median seconds."""
    walls = []
    for _ in range(PREPARE_REPEATS):
        p = run_timed([bins["probe"], "prepare"], work)
        if p.rc != 0:
            raise BenchError("perfbench_probe prepare failed: " + p.out[-500:])
        walls.append(p.wall)
    return statistics.median(walls)


def fig6_run(bins, work, tier, out):
    p = run_timed([bins["run"], "fig6_ber", "--scale=fast", f"--tier={tier}",
                   f"--jobs={NPROC}", f"--seed={SCENARIO_SEED}",
                   f"--out={out}"], work)
    d = os.path.join(out, "fig6_ber")
    res = {"wall": p.wall, "cpu": p.cpu, "rss": p.rss_mb, "ok": p.rc == 0,
           "problems": [], "bits": 0, "dir": d}
    if p.rc != 0:
        res["problems"].append(f"fig6_ber exited {p.rc}")
        return res
    summary = json.loads(read(os.path.join(d, "summary.json")))["metrics"]
    points = parse_fig6_points(read(os.path.join(d, "points.csv")))
    res["bits"] = sum(p["ideal"][1] + p["eldo"][1] for p in points)
    res["problems"] += check_fig6(points, summary["tw_product"],
                                  summary["quarantined"])
    h = hashlib.sha256()
    for name in ("points.csv", "ber_curves.csv", "golden_stats.json"):
        h.update(read(os.path.join(d, name)).encode())
    res["digest"] = h.hexdigest()
    return res


def state_path(bins, name):
    """Per-build record kept in the build directory across runs."""
    d = os.path.join(build_dir(), "state")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, f"{file_digest(bins['run'])[:16]}_{name}")


def bit_exact_golden(bins, work):
    """golden_stats.json of this build's bit_exact Fig. 6 run (made once)."""
    path = state_path(bins, "fig6_bit_exact_golden.json")
    if not os.path.isfile(path):
        res = fig6_run(bins, work, "bit_exact", os.path.join(work, "golden"))
        if not res["ok"]:
            raise BenchError("bit_exact reference run failed")
        shutil.copyfile(os.path.join(res["dir"], "golden_stats.json"),
                        path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def workload_fig6(bins, work, tier, seconds):
    setup = prepare_setup(bins, work)

    def one(i):
        res = fig6_run(bins, work, tier, os.path.join(work, f"r{i}"))
        log(f"round {i}: {res['bits']} bits in {res['wall']:.3f} s, "
            f"cpu {res['cpu']:.2f} s")
        return res

    rounds = timed_rounds(seconds, one)
    problems = [p for r in rounds for p in r["problems"]]
    ok = [r for r in rounds if r["ok"]]
    if tier == "bit_exact":
        digests = {r["digest"] for r in ok}
        record = state_path(bins, "fig6_bit_exact.sha256")
        if os.path.isfile(record):
            digests.add(read(record).strip())
        elif ok:
            with open(record, "w") as f:
                f.write(ok[0]["digest"] + "\n")
        if len(digests) > 1:
            problems.append("bit_exact output differs between runs")
    elif ok:
        golden = bit_exact_golden(bins, work)
        p = run_timed([bins["run"], "--equiv-check", golden,
                       os.path.join(ok[0]["dir"], "golden_stats.json")], work)
        if p.rc != 0:
            problems.append("stat_equiv fails --equiv-check against the "
                            "bit_exact golden_stats.json")
    metrics = {
        "setup_s": (setup, "s"),
        "work_per_s": (max(r["bits"] / r["wall"] for r in ok) if ok else 0.0,
                       "1/s"),
        "cpu_s": (min(r["cpu"] for r in ok) if ok else 0.0, "s"),
        "peak_rss_mb": (max(r["rss"] for r in rounds), "MB"),
    }
    return problems, len(rounds), len(rounds) - len(ok), metrics


# --------------------------------------------------------- netscale workload

def calibrate(bins, work, cache):
    os.makedirs(cache, exist_ok=True)
    p = run_timed([bins["probe"], "calibrate", str(NPROC)], work,
                  {"UWBAMS_CACHE": cache})
    if p.rc != 0 or " key 0x" not in p.out:
        raise BenchError("surrogate calibration failed: " + p.out[-500:])
    return p.wall, p.out.split(" key ")[-1].split()[0]


def workload_netscale(bins, work, seconds):
    setups = []
    for i in range(SETUP_REPEATS):
        cache = os.path.join(work, f"cache{i}")
        wall, key = calibrate(bins, work, cache)
        setups.append(wall)
        log(f"setup {i}: surrogate {key} calibrated in {wall:.3f} s")
    digests = set()

    def one(i):
        out = os.path.join(work, f"r{i}")
        p = run_timed([bins["run"], "netscale_static", "--scale=full",
                       f"--jobs={NPROC}", f"--seed={SCENARIO_SEED}",
                       f"--out={out}"], work, {"UWBAMS_CACHE": cache})
        res = {"wall": p.wall, "cpu": p.cpu, "rss": p.rss_mb, "ok": p.rc == 0,
               "problems": [], "work": 0}
        if p.rc != 0:
            res["problems"].append(f"netscale_static exited {p.rc}")
            return res
        if f"surrogate: cache (key {key})" not in p.out:
            raise BenchError("netscale_static did not load the calibrated "
                             "surrogate; the calibration in probe.cpp is out "
                             "of step with bench/netscale.cpp")
        d = os.path.join(out, "netscale_static")
        m = json.loads(read(os.path.join(d, "summary.json")))["metrics"]
        res["work"] = m["tags"] * m["rounds"]
        positions = read(os.path.join(d, "positions.csv"))
        digest = hashlib.sha256(positions.encode()).hexdigest()
        if digest not in digests:  # identical bytes pass identical checks
            digests.add(digest)
            res["problems"] += check_netscale(
                positions, read(os.path.join(d, "rounds.csv")))
            if m["availability"] < MIN_AVAILABILITY or m["rmse_m"] > MAX_RMSE_M:
                res["problems"].append("overall availability/RMSE out of "
                                       "bounds")
        shutil.rmtree(out)
        log(f"round {i}: {res['work']} tag-rounds in {p.wall:.3f} s, "
            f"cpu {p.cpu:.2f} s")
        return res

    rounds = timed_rounds(seconds, one)
    problems = [p for r in rounds for p in r["problems"]]
    if len(digests) > 1:
        problems.append("netscale_static output differs between rounds")
    ok = [r for r in rounds if r["ok"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (max(r["work"] / r["wall"] for r in ok) if ok else 0.0,
                       "1/s"),
        "cpu_s": (min(r["cpu"] for r in ok) if ok else 0.0, "s"),
        "peak_rss_mb": (max(r["rss"] for r in rounds), "MB"),
    }
    return problems, len(rounds), len(rounds) - len(ok), metrics


# ------------------------------------------------------------ serve workload

def passing_seeds(scenario):
    return [s for s in SEED_POOL if (scenario, s) not in FAILING_1_64]


class KeyDraw:
    """Distinct (scenario, seed) keys drawn from --seed, never a failing
    pair."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.pools = {}

    def take(self, scenario):
        pool = self.pools.get(scenario)
        if pool is None:
            pool = passing_seeds(scenario)
            self.rng.shuffle(pool)
            self.pools[scenario] = pool
        if not pool:
            raise BenchError(f"seed pool of {scenario} used up; widen "
                             "SEED_POOL with failure_table.py")
        return (scenario, pool.pop())


def serve_plan(draw):
    """One round: the computing client's steps (first requests of new keys
    alternating with the known-failing pairs), its read-backs, and the key
    of the closing burst."""
    new = [draw.take(s) for s in SERVE_MIX]
    steps = []
    for i, key in enumerate(new):
        steps.append(("miss", key))
        if i < len(KNOWN_FAILING):
            steps.append(("fail", KNOWN_FAILING[i]))
    steps += [("fail", k) for k in KNOWN_FAILING[len(new):]]
    return steps, new, draw.take(BURST_SCENARIO)


def request_line(key, op="run"):
    if op != "run":
        return ('{"schema":"uwbams-serve-v1","op":"%s"}\n' % op).encode()
    return ('{"schema":"uwbams-serve-v1","op":"run","scenario":"%s",'
            '"scale":"fast","seed":%d}\n' % key).encode()


class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = bytearray()

    def request(self, line):
        t0 = time.perf_counter()
        self.sock.sendall(line)
        while True:
            i = self.buf.find(b"\n")
            if i >= 0:
                break
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        lat = time.perf_counter() - t0
        resp = bytes(self.buf[:i])
        del self.buf[:i + 1]
        return lat, resp

    def close(self):
        self.sock.close()


def parse_response(line):
    """(cache state, payload bytes, server wall seconds) or ('error', msg)."""
    head = b'{"cache":"'
    if line.startswith(head):
        state = line[len(head):line.index(b'"', len(head))]
        start = len(head) + len(state) + len(b'","result":')
        end = line.rfind(RESPONSE_TAIL)
        return (state.decode(), line[start:end],
                float(line[end + len(RESPONSE_TAIL):-1]))
    return "error", json.loads(line).get("error", ""), None


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One uwbams_serve over a fresh cache directory."""

    def __init__(self, bins, work, name):
        self.dir = os.path.join(work, name)
        os.makedirs(self.dir)
        # Relative to the checkout: unix socket paths are limited in length.
        self.sock = os.path.relpath(os.path.join(self.dir, "s.sock"), ROOT)
        self.log = open(os.path.join(self.dir, "server.log"), "w")
        self.proc = subprocess.Popen(
            [bins["serve"], f"--socket={self.sock}",
             f"--cache={os.path.join(self.dir, 'cache')}",
             f"--jobs={SERVER_JOBS}"],
            stdout=self.log, stderr=subprocess.STDOUT, cwd=ROOT)
        deadline = time.perf_counter() + 30
        while True:
            try:
                c = Client(os.path.join(ROOT, self.sock))
                c.close()
                break
            except OSError:
                if (self.proc.poll() is not None
                        or time.perf_counter() > deadline):
                    raise BenchError("uwbams_serve did not start")
                time.sleep(0.002)

    def client(self):
        return Client(os.path.join(ROOT, self.sock))

    def op(self, op):
        c = self.client()
        try:
            return json.loads(c.request(request_line(None, op))[1])
        finally:
            c.close()

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.op("shutdown")
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class ServeRun:
    """Setup and timed rounds of the serve workload, with every check."""

    def __init__(self, bins, work, seed):
        self.bins, self.work = bins, work
        self.draw = KeyDraw(seed)
        self.warm = [self.draw.take(s) for s in WARM_SCENARIOS]
        self.payloads = {}      # key -> sha256 of the computing response
        self.problems = []
        self.server = None
        self.hit_lat, self.miss_lat, self.miss_wall = [], [], {}
        self.failed_pairs, self.round_fails = [], None
        self.attempted = self.failed = 0

    def setup(self, index):
        t0 = time.perf_counter()
        server = Server(self.bins, self.work, f"server{index}")
        c = server.client()
        for key in self.warm:
            state, payload, _ = parse_response(c.request(request_line(key))[1])
            if state != "miss":
                self.problems.append(f"warm key {key} answered {state}")
            else:
                self.payloads[key] = hashlib.sha256(payload).digest()
        c.close()
        wall = time.perf_counter() - t0
        if self.server is not None:
            self.server.stop()
        self.server = server
        return wall

    def check(self, responses):
        """Checks one batch of (kind, key, latency, response line); returns
        the number answered. Computing responses are recorded first, so a
        coalesced answer is compared whatever order the clients logged."""
        parsed = []
        for kind, key, lat, line in responses:
            state, payload, wall = parse_response(line)
            digest = hashlib.sha256(payload).digest() if wall is not None \
                else None
            if state == "miss":
                self.payloads[key] = digest
            parsed.append((kind, key, lat, state, payload, wall, digest))
        done = 0
        for kind, key, lat, state, payload, wall, digest in parsed:
            self.attempted += 1
            if state == "error":
                self.failed += 1
                self.failed_pairs.append(key)
                if key not in KNOWN_FAILING:
                    self.problems.append(f"{key} failed: {payload}")
                continue
            done += 1
            # A known-failing pair that passes is computed once, then hit.
            expect = {"miss": ("miss",), "fail": ("miss", "hit"),
                      "hit": ("hit",), "burst": ("miss", "coalesced")}[kind]
            if state not in expect:
                self.problems.append(f"{kind} request for {key} answered "
                                     f"{state}")
            if self.payloads.get(key) != digest:
                self.problems.append(f"{state} bytes for {key} differ from the "
                                     "computing response")
            if state == "hit":
                self.hit_lat.append(lat)
            elif state == "miss" and kind == "miss":
                self.miss_lat.append(lat)
                self.miss_wall[key] = wall
        return done

    def round(self, index):
        """Client 0 sends every computing request, one at a time, then reads
        its new keys back. As each computing request starts, one other
        client, in turn, sends a fixed chunk of hits on the warm keys. All
        clients close the round with one concurrent burst on a new key."""
        steps, new, burst = serve_plan(self.draw)
        clients = [self.server.client() for _ in range(CLIENTS)]
        barrier = threading.Barrier(CLIENTS)
        progress = threading.Condition()
        started = [0]
        results = [[] for _ in range(CLIENTS)]
        errors = []

        def send(c, kind, key):
            lat, line = clients[c].request(request_line(key))
            results[c].append((kind, key, lat, line))

        def work(c):
            try:
                if c == 0:
                    for i, (kind, key) in enumerate(steps):
                        with progress:
                            started[0] = i + 1
                            progress.notify_all()
                        send(c, kind, key)
                    for key in new:
                        send(c, "hit", key)
                else:
                    for i in range(c - 1, len(steps), CLIENTS - 1):
                        with progress:
                            progress.wait_for(lambda: started[0] > i)
                        for j in range(HITS_PER_STEP):
                            n = i * HITS_PER_STEP + j
                            send(c, "hit", self.warm[n % len(self.warm)])
                barrier.wait()
                send(c, "burst", burst)
            except Exception as e:  # surfaced below, after the join
                errors.append(e)
                with progress:
                    started[0] = len(steps)
                    progress.notify_all()
                barrier.abort()

        threads = [threading.Thread(target=work, args=(c,))
                   for c in range(CLIENTS)]
        cpu0 = proc_cpu_s(self.server.proc.pid)
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        cpu = proc_cpu_s(self.server.proc.pid) - cpu0
        for c in clients:
            c.close()
        if errors:
            raise BenchError(f"serve client failed: {errors[0]!r}")
        fails_before = len(self.failed_pairs)
        done = self.check([r for res in results for r in res])
        fails = sorted(self.failed_pairs[fails_before:])
        if index > 0 and fails != self.round_fails:
            self.problems.append("failed requests differ between rounds")
        self.round_fails = fails
        log(f"round {index}: {done} requests answered in {wall:.3f} s, "
            f"server cpu {cpu:.2f} s, failed {len(fails)}")
        return {"wall": wall, "cpu": cpu, "done": done, "new": new}

    def verify_batch(self, new_keys):
        """Artifacts of sampled keys against a batch uwbams_run."""
        for scenario, seed in self.draw.rng.sample(new_keys, SAMPLED_KEYS):
            out = os.path.join(self.work, "batch")
            p = run_timed([self.bins["run"], scenario, "--scale=fast",
                           f"--seed={seed}", f"--jobs={NPROC}", f"--out={out}"],
                          self.work)
            c = self.server.client()
            _, line = c.request(request_line((scenario, seed)))
            c.close()
            state, payload, _ = parse_response(line)
            if p.rc != 0 or state != "hit":
                self.problems.append(f"batch check of {scenario}:{seed} "
                                     f"could not run ({p.rc}, {state})")
                continue
            artifacts = json.loads(payload)["artifacts"]
            for name, content in artifacts.items():
                if name.startswith("BENCH_"):  # host-time records
                    continue
                with open(os.path.join(out, scenario, name), "rb") as f:
                    if f.read() != content.encode():
                        self.problems.append(f"{scenario}:{seed} {name} "
                                             "differs from the batch run")
            shutil.rmtree(out)

    def latencies(self):
        """Client-side hit p50 and p99 and computed-request p50, in ms."""
        return (1e3 * statistics.median(self.hit_lat),
                1e3 * percentile(self.hit_lat, 0.99),
                1e3 * statistics.median(self.miss_lat))

    def latency_note(self):
        hit_p50, hit_p99, miss_p50 = self.latencies()
        return (f"hits: p50 {hit_p50:.4f} ms, p99 {hit_p99:.4f} ms over "
                f"{len(self.hit_lat)}; computed requests: p50 {miss_p50:.2f} "
                f"ms over {len(self.miss_lat)}")

    def close(self):
        if self.server is not None:
            self.server.stop()


def percentile(values, q):
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def workload_serve(bins, work, seed, seconds):
    run = ServeRun(bins, work, seed)
    try:
        setups = [run.setup(i) for i in range(SETUP_REPEATS)]
        rounds = timed_rounds(seconds, run.round)
        peak = proc_hwm_mb(run.server.proc.pid)
        run.verify_batch([k for r in rounds for k in r["new"]])
    finally:
        run.close()
    log(run.latency_note())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (max(r["done"] / r["wall"] for r in rounds), "1/s"),
        "cpu_s": (min(r["cpu"] for r in rounds), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return run.problems, run.attempted, run.failed, metrics


# -------------------------------------------------------------- traced run

LAYER_UNITS = {
    "base.rng_normal_ns": "ns", "base.pool_busy_ratio": "ratio",
    "base.pool_tail_s": "s", "linalg.refactor_us": "us",
    "linalg.solve_us": "us", "spice.stamp_us": "us",
    "spice.residual_us": "us", "spice.step_us": "us",
    "spice.step_stat_us": "us", "spice.steps": "count",
    "spice.newton_iterations": "count", "spice.factorizations": "count",
    "spice.refactorizations": "count", "spice.solves": "count",
    "spice.refactors_per_step": "ratio", "spice.newton_per_step": "ratio",
    "spice.op_ms": "ms", "spice.ac_ms": "ms", "ams.sample_ns": "ns",
    "uwb.ber_ideal_s": "s", "uwb.ber_spice_s": "s",
    "uwb.channel_draw_us": "us", "uwb.interference_ns": "ns",
    "core.characterize_ms": "ms", "net.twr_exchange_ms": "ms",
    "net.calibrate_s": "s", "net.draw_ns": "ns", "net.engine_build_s": "s",
    "net.engine_run_s": "s", "net.toa_draws": "count",
    "runner.sink_ms": "ms", "serve.parse_us": "us", "serve.key_us": "us",
    "serve.cache_get_us": "us", "serve.cache_disk_get_us": "us",
    "serve.cache_put_us": "us", "serve.handle_hit_us": "us",
    "serve.transport_us": "us", "serve.compute_ms": "ms",
    "serve.queue_ms": "ms", "serve.hit_p50_ms": "ms",
    "serve.hit_tail_ms": "ms", "serve.miss_p50_ms": "ms",
    "serve.computations": "count",
    "serve.hits": "count", "serve.coalesced": "count",
    "serve.hit_ratio": "ratio",
}


def traced(bins, work, workload, seed):
    """perfbench_probe's in-process layer timings, plus one serve round for
    the server-side figures. Counts the workload's own operations: the serve
    round for `serve`, the probe run otherwise."""
    run = ServeRun(bins, work, seed)
    try:
        run.setup(0)
        rnd = run.round(0)
        stats = run.server.op("stats")["stats"]
    finally:
        run.close()
    tier = "bit_exact" if workload == "ber_exact" else "stat_equiv"
    keys = [f"{s}:{n}" for s, n in rnd["new"]]
    warm = "%s:%d" % run.warm[0]
    p = run_timed([bins["probe"], "trace", tier, str(NPROC), str(SERVER_JOBS),
                   os.path.join(work, "probe"), warm] + keys, work, timeout=170)
    if p.rc != 0:
        raise BenchError("perfbench_probe trace failed: " + p.out[-800:])
    lines = p.out.strip().splitlines()
    layers = json.loads(lines[-1])
    compute = {ln.split()[1]: float(ln.split()[2]) for ln in lines
               if ln.startswith("compute_ms ")}
    log(f"traced Fig. 6 sweep ({tier}): {layers.pop('fig6_sweep_wall_s'):.3f} s"
        " wall")
    layers["serve.transport_us"] = (1e6 * statistics.median(run.hit_lat)
                                    - layers["serve.handle_hit_us"])
    layers["serve.queue_ms"] = statistics.median(
        1e3 * run.miss_wall[key] - compute["%s:%d" % key]
        for key in rnd["new"] if key in run.miss_wall)
    log(run.latency_note())
    (layers["serve.hit_p50_ms"], layers["serve.hit_tail_ms"],
     layers["serve.miss_p50_ms"]) = run.latencies()
    runs = stats["computations"] + stats["cache_hits"] + stats["coalesced"]
    layers["serve.computations"] = stats["computations"]
    layers["serve.hits"] = stats["cache_hits"]
    layers["serve.coalesced"] = stats["coalesced"]
    layers["serve.hit_ratio"] = stats["cache_hits"] / runs
    metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    if workload == "serve":
        return run.problems, run.attempted, run.failed, metrics
    return run.problems, 1, 0, metrics


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        bins = build()
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    log("host: " + json.dumps(host_record(bins)))
    work = os.path.join(build_dir(), "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            result = traced(bins, work, args.workload, args.seed)
        elif args.workload == "ber_exact":
            result = workload_fig6(bins, work, "bit_exact", args.seconds)
        elif args.workload == "ber_stat":
            result = workload_fig6(bins, work, "stat_equiv", args.seconds)
        elif args.workload == "netscale":
            result = workload_netscale(bins, work, args.seconds)
        else:
            result = workload_serve(bins, work, args.seed, args.seconds)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems, attempted, failed, metrics = result
    for p in problems:
        log("CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
