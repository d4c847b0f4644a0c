#!/usr/bin/env python3
"""The repo benchmark: build, run one workload, print the verdict.

    python3 tdbench/run.py --workload fig13|geometry|sweepd \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout.  The script builds the tdbench
binary and td-sweepd from source under .bench_build/ (Release, via
tdbench/CMakeLists.txt), runs the workload in a fresh work
directory, stops and reaps every process the run started, removes the
work directory, and passes the run's output through.  The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  A build failure or a crashed run exits non-zero without
printing a verdict, as does a run the binary refuses (a TD_* knob
that changes what is measured is set).  See tdbench/README.md for the
workloads and metrics.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join('.bench_build', 'tdbench')
WORKLOADS = ('fig13', 'geometry', 'sweepd')
RUN_TIMEOUT_S = 170
REAP_GRACE_S = 10


def log(msg):
    print('[run.py] ' + msg, file=sys.stderr, flush=True)


def build():
    """Configure once and build the two targets; paths or None."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, 'build.log')
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ('Makefile', 'build.ninja')):
        steps.append(['cmake', '-S', os.path.relpath(HERE, ROOT), '-B',
                      BUILD, '-DCMAKE_BUILD_TYPE=Release'])
    steps.append(['cmake', '--build', BUILD, '-j', str(os.cpu_count() or 1),
                  '--target', 'tdbench', 'td-sweepd'])
    with open(build_log, 'w') as out:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
            except OSError as e:
                rc = 'not runnable (%s)' % e
            if rc != 0:
                out.flush()
                with open(build_log) as f:
                    sys.stderr.write(''.join(f.readlines()[-30:]))
                log('build step failed (%s): %s' % (rc, ' '.join(cmd)))
                return None
    return (os.path.join(BUILD, 'tdbench'),
            os.path.join(BUILD, 'tensordash', 'tools', 'td-sweepd'))


def become_subreaper():
    """Adopt orphaned descendants (a daemon whose client crashed), so
    they can be reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def stop_group(pgid):
    """SIGTERM the run's process group, then SIGKILL what remains, and
    reap every child until none is left."""
    for sig, grace in ((signal.SIGTERM, REAP_GRACE_S), (signal.SIGKILL, 5)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                time.sleep(0.01)


def verdict_ok(line):
    try:
        v = json.loads(line)
    except ValueError:
        return False
    return (isinstance(v, dict) and
            set(v) == {'correct', 'attempted', 'failed', 'metrics'} and
            isinstance(v['attempted'], int) and v['attempted'] >= 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', type=int, default=7)
    ap.add_argument('--seconds', type=float, default=25.0)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)

    binaries = build()
    if binaries is None:
        return 1
    tdbench, sweepd = binaries

    work = os.path.join(BUILD, 'run-%d' % os.getpid())
    traces = os.path.join(BUILD, 'traces')
    os.makedirs(traces, exist_ok=True)
    cmd = [tdbench, args.workload, '--seed', str(args.seed),
           '--seconds', str(args.seconds), '--trace', str(args.trace),
           '--work', work, '--golden-dir', os.path.join('bench', 'golden'),
           '--sweepd', sweepd, '--trace-out',
           os.path.join(traces, '%s-seed%d.json' % (args.workload,
                                                    args.seed))]
    become_subreaper()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log('run exceeded %d s' % RUN_TIMEOUT_S)
        out = None
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    if out is None:
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not verdict_ok(lines[-1]):
        log('run failed (exit %s) without a verdict' % proc.returncode)
        return 1
    return 0


if __name__ == '__main__':
    sys.exit(main())
