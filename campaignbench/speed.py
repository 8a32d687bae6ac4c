"""Machine-speed samples taken while a campaign runs.

The benchmark host is a shared virtual machine whose speed for the same
Python work drifts by up to 2x between minutes and by about ±30% within
a second (measured on a 2-vCPU Linux guest).  No run length averages
that away.  So while an untraced campaign runs, a ``SIGALRM`` handler
times a fixed pure-Python kernel (a small register-machine interpreter,
the same kind of work as the program's simulator) every
:data:`SAMPLE_EVERY_S` of wall time, in whatever phase the campaign is.
The kernel's code belongs to the benchmark, but it shares the CPU
caches and the allocator with the program: a change that adds cache or
heap pressure slows the kernel too, and the correction then hides part
of that change.  Forked workers do not inherit the interval timer.

A timed interval's speed factor is :data:`REFERENCE_KERNEL_S` ÷ the
kernel's mean CPU time over the samples taken inside the interval.
When the sampled process does all of the campaign's work, the
benchmark first takes the sampling's wall time out of the interval.
With forked workers it does not, because the workers keep producing
results while the handler runs.  The interval is then multiplied by
the factor, so the benchmark reports seconds of a machine running at
the reference speed.
"""

from __future__ import annotations

import gc
import signal
import time

#: Wall-clock spacing of speed samples.
SAMPLE_EVERY_S = 0.025
#: Kernel CPU time at the reference speed (the scale of the reported
#: timings; about the kernel's time on a quiet 2-vCPU guest).
REFERENCE_KERNEL_S = 0.0008
_STEPS = 3000


def kernel(steps: int = _STEPS) -> int:
    """Interpret a fixed 64-instruction program for ``steps`` steps."""
    regs = [0] * 8
    mem = list(range(256))

    def add(a, b):
        regs[a] = (regs[a] + regs[b] + 1) & 0xFFFFFFFF

    def xor(a, b):
        regs[a] ^= (regs[b] << 1) & 0xFFFFFFFF

    def load(a, b):
        regs[a] = mem[(regs[b] + a) & 0xFF]

    def store(a, b):
        mem[regs[a] & 0xFF] = regs[b] & 0xFFFF

    def parity(a, b):
        regs[a] = (regs[a] | regs[b]).bit_count()

    handlers = {0: add, 1: xor, 2: load, 3: store, 4: parity}
    program = [(i % 5, i % 8, (i * 7) % 8) for i in range(64)]
    pc = 0
    for _ in range(steps):
        op, a, b = program[pc]
        handlers[op](a, b)
        pc = (pc + 1) & 63
    return regs[0]


class SpeedSampler:
    """Within ``with``: sample the kernel every :data:`SAMPLE_EVERY_S`.
    ``sole_worker`` says whether this process does all the work being
    timed, so that the sampling's wall time is taken out of intervals."""

    def __init__(self, sole_worker: bool = True) -> None:
        #: ``(started_at, wall_s, cpu_s)`` per sample, ``perf_counter`` time.
        self.samples: list[tuple[float, float, float]] = []
        self.sole_worker = sole_worker
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        # A garbage collection triggered by the kernel's allocations
        # would scan the program's whole heap and read as a slow machine.
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            cpu = time.thread_time()
            kernel()
            cpu = time.thread_time() - cpu
            self.samples.append((started, time.perf_counter() - started, cpu))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _within(self, start: float, end: float):
        return [s for s in self.samples if start <= s[0] < end]

    def wall(self, start: float, end: float) -> float:
        """Wall seconds spent sampling between ``start`` and ``end``."""
        return sum(wall for _at, wall, _cpu in self._within(start, end))

    def cpu(self, start: float, end: float) -> float:
        """CPU seconds spent sampling between ``start`` and ``end``."""
        return sum(cpu for _at, _wall, cpu in self._within(start, end))

    def factor(self, start: float, end: float) -> float:
        """Machine speed relative to the reference between ``start`` and
        ``end``; over all samples when none fell inside, and 1.0 when
        there are none at all."""
        samples = self._within(start, end) or self.samples
        if not samples:
            return 1.0
        return REFERENCE_KERNEL_S * len(samples) / sum(cpu for _a, _w, cpu in samples)


def scaled(sampler: SpeedSampler | None, start: float, end: float) -> float:
    """``end - start`` at the reference speed, without the sampling wall
    time when the sampled process is the sole worker."""
    if sampler is None:
        return end - start
    sampling = sampler.wall(start, end) if sampler.sole_worker else 0.0
    return (end - start - sampling) * sampler.factor(start, end)
