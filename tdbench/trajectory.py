#!/usr/bin/env python3
"""Measure one trajectory point of the repo benchmark.

    python3 tdbench/trajectory.py [--workloads fig13 geometry sweepd]
        [--out FILE]

Runs every workload ten times untraced, on seeds 1-10, and twice traced
at seed 7, through tdbench/run.py.  Prints, per workload and end-to-end
metric, the median, the quartiles and their spread (the distance
between the quartiles as a share of the median) next to the metric's
bound from BENCHMARK.json, and writes everything, with the per-layer
table of the first traced run and the build's identity, to --out as
JSON.  A spread above a third of its bound is flagged: the metric is
too noisy for its bound on this machine.  The deterministic counts of
the two traced runs (units count and B) must repeat exactly, apart from
the racy duplicate-simulation count; a count that differs is printed
and recorded.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1
TRACE_SEED = 7
# Cells simulated twice when two variants share a key: races today.
RACY_COUNTS = ('core.result_store.dup_simulations',)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, 'run.py'), '--workload',
           workload, '--seed', str(seed), '--seconds', str(seconds),
           '--trace', str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit('%s seed %d failed (exit %d)' %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1]), wall


def summary(values):
    med = statistics.median(values)
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {'median': med, 'q1': q[0], 'q3': q[2],
            'spread': (q[2] - q[0]) / med if med else 0.0,
            'values': values}


def count_mismatches(a, b):
    """Deterministic per-layer counts that differ between two traced
    runs, as {name: [first, second]}."""
    return {name: [m['value'], b[name]['value']]
            for name, m in a.items()
            if m['unit'] in ('count', 'B') and name not in RACY_COUNTS
            and m['value'] != b[name]['value']}


def build_identity():
    info = {'nproc': os.cpu_count(), 'threads': os.cpu_count(),
            'machine': platform.machine()}
    try:
        info['git_sha'] = subprocess.run(
            ['git', 'rev-parse', 'HEAD'], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
    except OSError:
        info['git_sha'] = None
    cache = os.path.join(ROOT, '.bench_build', 'tdbench', 'CMakeCache.txt')
    if os.path.exists(cache):
        text = open(cache).read()
        for key in ('CMAKE_CXX_COMPILER', 'CMAKE_BUILD_TYPE'):
            m = re.search(r'^%s:\w+=(.*)$' % key, text, re.M)
            info[key.lower()] = m.group(1) if m else None
        if info.get('cmake_cxx_compiler'):
            try:
                info['compiler_version'] = subprocess.run(
                    [info['cmake_cxx_compiler'], '--version'],
                    stdout=subprocess.PIPE, text=True).stdout.splitlines()[0]
            except (OSError, IndexError):
                pass
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--workloads', nargs='+')
    ap.add_argument('--out')
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, 'BENCHMARK.json')))
    bounds = {m['name']: m['bound'] for m in bench['end_to_end']}
    workloads = args.workloads or [w['name'] for w in bench['workloads']]
    seconds = bench['run_seconds']
    out = {'run_seconds': seconds, 'workloads': {}}
    for w in workloads:
        metrics, walls, failed = {}, [], 0
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            verdict, wall = run(w, seed, seconds, 0)
            walls.append(wall)
            failed += verdict['failed'] + (not verdict['correct'])
            for name, m in verdict['metrics'].items():
                metrics.setdefault(name, []).append(m['value'])
        entry = {'failed': failed, 'run_wall_s': summary(walls),
                 'end_to_end': {}}
        for name, values in metrics.items():
            s = summary(values)
            entry['end_to_end'][name] = s
            bound = bounds.get(name)
            flag = '' if bound is None or s['spread'] < bound / 3 else \
                ' <-- above a third of the bound'
            print('%-9s %-12s median=%-11.5g q1=%-11.5g q3=%-11.5g '
                  'spread=%.3f bound=%s%s' % (w, name, s['median'], s['q1'],
                                              s['q3'], s['spread'], bound,
                                              flag), flush=True)
        print('%-9s runs=%d failed=%d wall median %.1f s' %
              (w, RUNS, failed, statistics.median(walls)), flush=True)
        traced = [run(w, TRACE_SEED, seconds, 1) for _ in range(2)]
        mismatches = count_mismatches(traced[0][0]['metrics'],
                                      traced[1][0]['metrics'])
        entry['traced_seed7'] = {
            'correct': all(v['correct'] for v, _ in traced),
            'wall_s': [wall for _, wall in traced],
            'count_mismatches': mismatches,
            'per_layer': {k: m['value']
                          for k, m in traced[0][0]['metrics'].items()}}
        print('%-9s traced runs %s correct=%s count mismatches=%s' %
              (w, ' '.join('%.1f s' % wall for _, wall in traced),
               entry['traced_seed7']['correct'], mismatches or 'none'),
              flush=True)
        out['workloads'][w] = entry
    out['build'] = build_identity()
    if args.out:
        with open(args.out, 'w') as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write('\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())
