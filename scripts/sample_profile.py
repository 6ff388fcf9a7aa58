#!/usr/bin/env python3
"""Wall-clock sampling profile of a command, libc and the allocator included.

Usage: scripts/sample_profile.py [--us N] [--top K] -- CMD [ARG...]

The script compiles a small LD_PRELOAD shim and runs CMD with it.  The shim
arms a CLOCK_MONOTONIC POSIX timer that sends SIGPROF to CMD's main thread
every N microseconds (default 1000); the handler records the interrupted
instruction pointer.  When CMD ends through exit() (returning from main
does), the shim writes the samples and a copy of /proc/self/maps.  The
report is of the process the script starts, also after it execs another
program (a wrapper such as `env`); processes it forks sample into dumps
that are not read.

The report has two parts:
  - a flat profile of the main program by symbol, the K heaviest first
    (default 25), from the program's own symbol table (`nm`), so inlined
    code counts toward the function it was inlined into;
  - one line per shared library or other mapping (libc.so.6,
    libstdc++.so.6, [vdso], ...), so time in malloc, free and memmove shows.

Shares are of all samples.  Unlike a -pg build, nothing is instrumented:
call-heavy code is not inflated by mcount, and time outside the program's
own code is seen.  Do not combine it with a -pg build, which also uses
SIGPROF.  It needs a C compiler (`$CC`, default `cc`), `nm` and `readelf`,
and runs on x86-64 and AArch64 Linux.

Exit status: CMD's (1 when a signal ended it), or 2 when no profile could
be taken.
"""

import argparse
import bisect
import collections
import os
import shutil
import subprocess
import sys
import tempfile

SHIM_SOURCE = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

#define MAX_SAMPLES (1u << 22)

static uintptr_t* samples;
static volatile size_t count;
static volatile size_t dropped;
static timer_t timer;
static int armed;
static long period_us;
static char out_path[4096];

static void on_tick(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  const uintptr_t ip = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t ip = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sample_profile: unsupported architecture"
#endif
  if (count < MAX_SAMPLES) {
    samples[count] = ip;
    count = count + 1;
  } else {
    dropped = dropped + 1;
  }
}

__attribute__((constructor)) static void start(void) {
  const char* out = getenv("SAMPLE_PROFILE_OUT");
  const char* us = getenv("SAMPLE_PROFILE_US");
  if (out == NULL || us == NULL) return;
  /* One dump per process: the profiler reads the one of the process it
     started, which keeps its pid across an exec. */
  snprintf(out_path, sizeof out_path, "%s.%ld", out, (long)getpid());
  period_us = atol(us);
  if (period_us <= 0) return;
  samples = mmap(NULL, MAX_SAMPLES * sizeof *samples, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (samples == MAP_FAILED) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_tick;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) return;
  struct itimerspec its;
  its.it_interval.tv_sec = period_us / 1000000;
  its.it_interval.tv_nsec = (period_us % 1000000) * 1000;
  its.it_value = its.it_interval;
  if (timer_settime(timer, 0, &its, NULL) != 0) return;
  armed = 1;
}

__attribute__((destructor)) static void stop(void) {
  if (!armed) return;
  armed = 0;
  timer_delete(timer);
  FILE* f = fopen(out_path, "w");
  if (f == NULL) return;
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[n > 0 ? n : 0] = '\0';
  fprintf(f, "exe %s\nperiod_us %ld\ndropped %zu\nsamples %zu\n", exe,
          period_us, (size_t)dropped, (size_t)count);
  for (size_t i = 0; i < count; ++i) {
    fprintf(f, "%lx\n", (unsigned long)samples[i]);
  }
  fputs("maps\n", f);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[8192];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, f);
    fclose(maps);
  }
  fclose(f);
}
"""


def fail(message):
    print("sample_profile: " + message, file=sys.stderr)
    sys.exit(2)


def build_shim(workdir):
    source = os.path.join(workdir, "shim.c")
    shim = os.path.join(workdir, "sample_profile_shim.so")
    with open(source, "w") as f:
        f.write(SHIM_SOURCE)
    cc = os.environ.get("CC", "cc")
    proc = subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", shim, source,
                           "-lrt"], capture_output=True, text=True)
    if proc.returncode != 0:
        fail("cannot compile the shim with %s:\n%s" % (cc, proc.stderr))
    return shim


def read_dump(path):
    """Returns (exe, period_us, dropped, samples, maps)."""
    with open(path) as f:
        lines = f.read().splitlines()
    header = {}
    for line in lines[:4]:
        key, _, value = line.partition(" ")
        header[key] = value
    count = int(header["samples"])
    samples = [int(x, 16) for x in lines[4:4 + count]]
    if lines[4 + count] != "maps":
        fail("malformed dump " + path)
    maps = []  # (start, end, file offset, path)
    for line in lines[5 + count:]:
        parts = line.split(None, 5)
        start, end = (int(x, 16) for x in parts[0].split("-"))
        name = parts[5].strip() if len(parts) == 6 else "[anonymous]"
        maps.append((start, end, int(parts[2], 16), name))
    maps.sort()
    return (header["exe"], int(header["period_us"]), int(header["dropped"]),
            samples, maps)


def load_segments(path):
    """The file offset, virtual address and file size of each PT_LOAD."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                         text=True).stdout
    segments = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            offset, vaddr, _, filesz = (int(x, 16) for x in parts[1:5])
            segments.append((offset, vaddr, filesz))
    return segments


def load_symbols(path):
    """Sorted (address, size, name) of the program's code symbols."""
    out = subprocess.run(["nm", "-C", "--defined-only", "-S", path],
                         capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(None, 3)
        if len(parts) < 3:
            continue
        if len(parts[1]) == 1:  # no size column: "address type name"
            parts = line.split(None, 2)
            address, size, kind, name = parts[0], "0", parts[1], parts[2]
        elif len(parts) == 4:
            address, size, kind, name = parts
        else:
            continue
        if kind in "tTwWi":
            symbols.append((int(address, 16), int(size, 16), name))
    symbols.sort()
    return symbols


def symbolize(vaddr, starts, symbols):
    i = bisect.bisect_right(starts, vaddr) - 1
    if i < 0:
        return "[unknown]"
    address, size, name = symbols[i]
    if size and vaddr >= address + size:
        return "[unknown]"
    return name


def report(exe, period_us, dropped, samples, maps, top):
    starts = [m[0] for m in maps]
    exe_real = os.path.realpath(exe)
    in_exe = [os.path.realpath(m[3]) == exe_real for m in maps]
    segments = load_segments(exe_real)
    symbols = load_symbols(exe_real)
    symbol_starts = [s[0] for s in symbols]
    by_symbol = collections.Counter()
    by_mapping = collections.Counter()
    for ip in samples:
        i = bisect.bisect_right(starts, ip) - 1
        if i < 0 or ip >= maps[i][1]:
            by_mapping["[unmapped]"] += 1
            continue
        start, _, offset, name = maps[i]
        if not in_exe[i]:
            by_mapping[os.path.basename(name) if name.startswith("/")
                       else name] += 1
            continue
        file_offset = ip - start + offset
        vaddr = None
        for seg_offset, seg_vaddr, filesz in segments:
            if seg_offset <= file_offset < seg_offset + filesz:
                vaddr = file_offset - seg_offset + seg_vaddr
                break
        by_symbol["[unknown]" if vaddr is None
                  else symbolize(vaddr, symbol_starts, symbols)] += 1

    total = len(samples)
    if total == 0:
        fail("no samples: the run was shorter than one period")

    def share(n):
        return "%5.1f%%" % (100.0 * n / total)

    def cap(name):
        return name if len(name) <= 110 else name[:107] + "..."

    own = sum(by_symbol.values())
    print("sample_profile: %d samples of the main thread, one per %d us of "
          "wall clock (%d dropped)" % (total, period_us, dropped))
    print("main program %s: %s (%d samples)" % (exe_real, share(own), own))
    print("  share  samples  symbol")
    ranked = by_symbol.most_common()
    for name, n in ranked[:top]:
        print("  %s %8d  %s" % (share(n), n, cap(name)))
    rest = sum(n for _, n in ranked[top:])
    if rest:
        print("  %s %8d  (%d more symbols)" % (share(rest), rest,
                                               len(ranked) - top))
    print("shared libraries and other mappings:")
    for name, n in by_mapping.most_common():
        print("  %s %8d  %s" % (share(n), n, name))


def main(argv):
    parser = argparse.ArgumentParser(
        description="Wall-clock sampling profile of CMD (see the module "
                    "docstring).",
        usage="%(prog)s [--us N] [--top K] -- CMD [ARG...]")
    parser.add_argument("--us", type=int, default=1000,
                        help="sampling period in microseconds (default 1000)")
    parser.add_argument("--top", type=int, default=25,
                        help="symbols of the main program to list "
                             "(default 25)")
    if "--" not in argv:
        parser.print_usage(sys.stderr)
        fail("expected -- CMD [ARG...]")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    cmd = argv[split + 1:]
    if not cmd:
        fail("no command given")
    if args.us <= 0 or args.top <= 0:
        fail("--us and --top must be positive")

    workdir = tempfile.mkdtemp(prefix="sample_profile.")
    try:
        shim = build_shim(workdir)
        prefix = os.path.join(workdir, "samples")
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(
            p for p in (shim, env.get("LD_PRELOAD", "")) if p)
        env["SAMPLE_PROFILE_OUT"] = prefix
        env["SAMPLE_PROFILE_US"] = str(args.us)
        child = subprocess.Popen(cmd, env=env)
        status = child.wait()
        dump = "%s.%d" % (prefix, child.pid)
        if not os.path.exists(dump):
            fail("%s left no samples: it must end through exit(), not "
                 "_exit() or a signal" % cmd[0])
        report(*read_dump(dump), top=args.top)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if status != 0:
        print("sample_profile: the command exited with status %d" % status,
              file=sys.stderr)
        return status if status > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
