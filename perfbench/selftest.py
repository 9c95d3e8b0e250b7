#!/usr/bin/env python3
"""Shows that each correctness check of run.py rejects a doctored output.

    python3 perfbench/selftest.py

Three cases, each on a real output of the program: one BER error count of a
Fig. 6 run changed, one byte of a cache-hit payload changed, and one
estimated position of netscale_static moved by a metre. Each check must pass
on the real output and fail on the doctored one. Exits 0 when all do.
"""
import json
import os
import shutil
import sys

import run


def case(name, clean_problems, doctored_problems):
    ok = not clean_problems and bool(doctored_problems)
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"  real output: {clean_problems or 'accepted'}")
    print(f"  doctored:    {doctored_problems or 'accepted'}")
    return ok


def fig6_case(bins, work):
    res = run.fig6_run(bins, work, "stat_equiv", os.path.join(work, "fig6"))
    d = res["dir"]
    tw = json.loads(run.read(os.path.join(d, "summary.json")))[
        "metrics"]["tw_product"]
    points = run.parse_fig6_points(run.read(os.path.join(d, "points.csv")))
    clean = run.check_fig6(points, tw, 0)
    # The ideal curve's 12 dB point: errors raised to five times the count.
    p = next(p for p in points if p["ebn0"] == 12.0)
    errors, bits = p["ideal"]
    p["ideal"] = (5 * errors, bits)
    return case("Fig. 6: one BER error count changed", clean,
                run.check_fig6(points, tw, 0))


def serve_case(bins, work):
    srv = run.ServeRun(bins, work, seed=1)
    try:
        srv.setup(0)
        c = srv.server.client()
        key = srv.warm[0]
        lat, line = c.request(run.request_line(key))
        c.close()
    finally:
        srv.close()
    srv.check([("hit", key, lat, line)])
    clean = list(srv.problems)
    # One byte inside the result payload.
    i = line.index(b'"result":') + len(b'"result":') + 20
    doctored = line[:i] + bytes([line[i] ^ 0x01]) + line[i + 1:]
    srv.check([("hit", key, lat, doctored)])
    return case("serve: one byte of a hit payload changed", clean,
                srv.problems[len(clean):])


def netscale_case(bins, work):
    out = os.path.join(work, "ns")
    cache = os.path.join(work, "cache")
    os.makedirs(cache)
    p = run.run_timed([bins["run"], "netscale_static", "--scale=full",
                       f"--jobs={run.NPROC}", f"--out={out}"], work,
                      {"UWBAMS_CACHE": cache})
    if p.rc != 0:
        raise run.BenchError("netscale_static failed")
    d = os.path.join(out, "netscale_static")
    positions = run.read(os.path.join(d, "positions.csv"))
    rounds = run.read(os.path.join(d, "rounds.csv"))
    clean = run.check_netscale(positions, rounds)
    lines = positions.split("\n")
    i = next(n for n, ln in enumerate(lines[1:], 1) if ln.endswith(",1"))
    f = lines[i].split(",")
    f[4] = "%.6f" % (float(f[4]) + 1.0)  # est_x one metre east
    lines[i] = ",".join(f)
    return case("netscale: one estimated position moved by a metre", clean,
                run.check_netscale("\n".join(lines), rounds))


def main():
    bins = run.build()
    work = os.path.join(run.build_dir(), "runs", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        results = [fig6_case(bins, work), serve_case(bins, work),
                   netscale_case(bins, work)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
