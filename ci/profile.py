#!/usr/bin/env python3
"""Sample where a command's main thread spends its time.

Starts CMD, attaches with PTRACE_SEIZE before it execs, and every
0.5 ms stops it with PTRACE_INTERRUPT, reads its instruction pointer
with PTRACE_GETREGS and lets it go on with PTRACE_CONT. Each sample is
mapped to a module through /proc/PID/maps; the executable's samples are
symbolized in one `addr2line -a -f -i -C` call, which walks the inline
chain that `debug = "line-tables-only"` keeps in a release build. The
out-of-line function that holds a sample is named from the symbol table
(`nm -C -S`): addr2line names it by its short debug name or its full
symbol name depending on the order of its queries.

The report (on stderr, so CMD's stdout can be redirected apart) lists:
- the innermost functions, each sample counted once, where it stopped;
- inclusive shares over inline chains: a function counts a sample when
  it stopped in its code or in code inlined into it. Calls that were
  not inlined are not followed (no stack is unwound), so a function's
  share leaves out the callees it calls out of line;
- the samples outside the executable, by module.

Only the main thread is traced, so profile a run that keeps its work
there (for `repro`: `--jobs 1 --sim-threads 1`). Needs x86-64 Linux, a
kernel that lets a process trace its own children, and binutils'
`addr2line` and `nm`. Not a CI step: runners may forbid ptrace.

Usage:
    ci/profile.py -- CMD [ARGS...]
    ci/profile.py -- target/release/repro --jobs 1 --sim-threads 1 \\
        --spec specs/fig11.toml > /dev/null
"""

import bisect
import collections
import ctypes
import os
import platform
import shutil
import struct
import subprocess
import sys
import time

INTERVAL_S = 0.0005
TOP = 25

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_O_TRACEEXEC = 0x10
PTRACE_O_EXITKILL = 0x100000
PTRACE_EVENT_EXEC = 4
PTRACE_EVENT_STOP = 128
# `struct user_regs_struct` on x86-64: 27 registers, rip the 17th.
N_REGS = 27
RIP = 16

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(request: int, pid: int, addr=0, data=0) -> None:
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request:#x}, {pid}): {os.strerror(err)}")


def spawn_seized(exe: str, argv: list) -> int:
    """Fork, seize the child while it waits on a pipe, and let it run
    from its exec of `exe` on: what the fork runs before that is not
    CMD's time."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(write_end)
        os.read(read_end, 1)
        try:
            os.execv(exe, argv)
        except OSError as e:
            print(f"profile.py: cannot run {exe}: {e}", file=sys.stderr)
        os._exit(127)
    os.close(read_end)
    ptrace(PTRACE_SEIZE, pid, 0, PTRACE_O_EXITKILL | PTRACE_O_TRACEEXEC)
    os.write(write_end, b"x")
    os.close(write_end)
    if resume_until(pid, PTRACE_EVENT_EXEC) is not None:
        raise SystemExit(127)
    ptrace(PTRACE_CONT, pid, 0, 0)
    return pid


def resume_until(pid: int, event: int):
    """Wait for the tracee's next `event` stop, passing on the signals
    that arrive first: None at the stop, or the wait status of its exit."""
    while True:
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            return status
        if status >> 16 == event:
            return None
        sig = os.WSTOPSIG(status) if status >> 16 == 0 else 0
        ptrace(PTRACE_CONT, pid, 0, sig)


class Maps:
    """The tracee's mappings, re-read when a sample falls outside them."""

    def __init__(self, pid: int):
        self.pid = pid
        self.regions = []

    def reload(self) -> None:
        regions = []
        try:
            with open(f"/proc/{self.pid}/maps") as f:
                for line in f:
                    fields = line.split(maxsplit=5)
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    path = fields[5].strip() if len(fields) == 6 else ""
                    regions.append((lo, hi, int(fields[2], 16), path))
        except OSError:
            return
        self.regions = regions

    def find(self, addr: int):
        def lookup():
            return next((r for r in self.regions if r[0] <= addr < r[1]), None)

        hit = lookup()
        if hit is None:
            self.reload()
            hit = lookup()
        return hit


def load_segments(path: str) -> list:
    """(file offset, address, file size) of each PT_LOAD segment."""
    with open(path, "rb") as f:
        header = f.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2:
            raise SystemExit(f"profile.py: {path} is not a 64-bit ELF file")
        phoff, = struct.unpack_from("<Q", header, 32)
        phentsize, phnum = struct.unpack_from("<HH", header, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize
        )
        if p_type == 1:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def file_address(rip: int, region: tuple, segments: list):
    """The address `rip` has in the ELF file mapped at `region`."""
    lo, _, offset, _ = region
    at = rip - lo + offset
    for p_offset, p_vaddr, p_filesz in segments:
        if p_offset <= at < p_offset + p_filesz:
            return at - p_offset + p_vaddr
    return None


def sample(pid: int):
    """Sample until the tracee exits: the (rip, mapping) samples, its
    wait status and the seconds it ran for."""
    regs = (ctypes.c_ulong * N_REGS)()
    maps = Maps(pid)
    samples = []
    started = next_tick = time.perf_counter()
    while True:
        next_tick += INTERVAL_S
        delay = next_tick - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        else:
            next_tick = time.perf_counter()
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except ProcessLookupError:
            pass
        status = resume_until(pid, PTRACE_EVENT_STOP)
        if status is not None:
            return samples, status, time.perf_counter() - started
        ptrace(PTRACE_GETREGS, pid, 0, ctypes.addressof(regs))
        ptrace(PTRACE_CONT, pid, 0, 0)
        rip = regs[RIP]
        samples.append((rip, maps.find(rip)))


def symbolize(exe: str, addrs: list) -> dict:
    """Inline chain (innermost first) of each executable address."""
    if not addrs:
        return {}
    text = "\n".join(f"{a:#x}" for a in addrs) + "\n"
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input=text,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    chains, current = {}, None
    i = 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        chains[current].append(line)
        i += 2  # the function name, then its file:line
    return chains


def functions(exe: str) -> tuple:
    """Sorted start addresses and (end, name) of the executable's
    functions, from its symbol table."""
    out = subprocess.run(
        ["nm", "-C", "-S", "--defined-only", exe],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    table = []
    for line in out:
        fields = line.split(" ", 3)
        if len(fields) == 4 and fields[2] in ("t", "T", "w", "W"):
            start, size = int(fields[0], 16), int(fields[1], 16)
            table.append((start, start + size, fields[3]))
    table.sort()
    return [t[0] for t in table], [(t[1], t[2]) for t in table]


def share(n: int, total: int) -> str:
    return f"{100.0 * n / total:6.2f}%"


def report(exe: str, samples: list, status: int, seconds: float) -> None:
    total = len(samples)
    out = sys.stderr
    if os.WIFEXITED(status):
        ending = f"exit {os.WEXITSTATUS(status)}"
    else:
        ending = f"signal {os.WTERMSIG(status)}"
    print(
        f"profile.py: {total} samples of the main thread of {exe} over "
        f"{seconds * 1e3:.1f} ms ({ending}), one per {INTERVAL_S * 1e3:g} ms",
        file=out,
    )
    if total == 0:
        return
    segments = load_segments(exe)
    inside, outside = [], collections.Counter()
    for rip, region in samples:
        at = file_address(rip, region, segments) if region and region[3] == exe else None
        if at is not None:
            inside.append(at)
        elif region is None:
            outside["[unmapped]"] += 1
        else:
            outside[region[3] or "[anonymous]"] += 1
    chains = symbolize(exe, sorted(set(inside)))
    starts, ends = functions(exe)
    innermost, inclusive = collections.Counter(), collections.Counter()
    for vaddr in inside:
        i = bisect.bisect_right(starts, vaddr) - 1
        holder = ends[i][1] if i >= 0 and vaddr < ends[i][0] else "??"
        # The chain's last entry is the holder under one of its names.
        chain = (chains.get(vaddr) or ["??"])[:-1] + [holder]
        innermost[chain[0]] += 1
        for name in set(chain):
            inclusive[name] += 1
    print(f"{share(sum(outside.values()), total)} of samples outside {exe}", file=out)
    print("\ninnermost function (self)", file=out)
    for name, n in innermost.most_common(TOP):
        print(f"  {share(n, total)}  {name}", file=out)
    print("\ninclusive over inline chains", file=out)
    for name, n in inclusive.most_common(TOP):
        print(f"  {share(n, total)}  {name}", file=out)
    if outside:
        print("\noutside the executable, by module", file=out)
        for name, n in outside.most_common(TOP):
            print(f"  {share(n, total)}  {name}", file=out)


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["--"]:
        args = args[1:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    if platform.machine() != "x86_64" or not sys.platform.startswith("linux"):
        print("profile.py: needs x86-64 Linux (PTRACE_GETREGS)", file=sys.stderr)
        return 2
    exe = shutil.which(args[0])
    if exe is None:
        print(f"profile.py: no executable {args[0]}", file=sys.stderr)
        return 2
    exe = os.path.realpath(exe)
    pid = spawn_seized(exe, args)
    samples, status, seconds = sample(pid)
    report(exe, samples, status, seconds)
    if os.WIFEXITED(status):
        return os.WEXITSTATUS(status)
    return 128 + os.WTERMSIG(status)


if __name__ == "__main__":
    sys.exit(main())
