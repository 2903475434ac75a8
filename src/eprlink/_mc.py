"""Hot Monte Carlo kernel for segment-by-segment channel sampling.

Randomness is a counter-based hash: every (seed, sample, segment) key
seed*K0 + sample*K1 + segment*K2 (mod 2**64) is mixed by the splitmix64
finalizer into z, and the draw is the uniform u = (z >> 11) * 2**-53.  A draw
depends only on its key, so tallies do not depend on how the work is split.

The kernel computes exactly these draws without forming u:

* u < t is the integer test z >> 11 < ceil(t * 2**53).
* The finalizer's last step z ^= z >> 31 leaves bits 33..63 unchanged, so only
  keys whose pre-image passes the same test on those bits (about a t3 share)
  can flip; the last step runs on those candidates only.
* XOR is associative, so each sample folds its error indices over all
  n1 + n2 segments at once.

Keys are hashed in blocks of at most ``_BLOCK_KEYS`` so that the working
buffers stay in cache: a block is a group of whole samples, or one slice of
a sample wider than a block.  A block runs only the hash passes and the
candidate search; it queues each candidate's finalizer input and sample
index.  When the queue of ``_TAIL_KEYS`` fills, or the worker is done, one
vectorized pass finishes the last step, XOR-folds the error indices per
sample and tallies the folds.  A sample whose candidates span two flushes
carries its partial fold into the next, so memory does not grow with the
sample width.  Samples without a nonzero fold are tallied as 0.

Every CPU in the process's affinity mask runs one worker: the calling thread,
and one helper process for each further CPU (threads would share the GIL,
which every numpy call takes back).  Helpers are forked at the first call of
two or more groups of samples made while the process has one thread, and
serve every later call until the interpreter exits; a helper also exits when
its task pipe closes.  A process forked from this one forgets them and forks
its own.  Each call sends the helpers every kernel constant over their task
pipes and writes a token for each chunk of groups (at most ``_CHUNKS``) into
one claim pipe that all workers read, so a core slowed by other load takes
fewer chunks, and each helper sends its integer tallies back over its reply
pipe.  A worker that fails or is interrupted empties the claim pipe, so the
others stop.  No flag, environment variable or parameter sets the number of
workers.  With one CPU, a call of one group, no ``os.fork``, or other threads
running when a helper would be forked, the calling thread works alone.  Each
process keeps one set of block buffers and one queue for its life, and one
module lock guards the caller's, so concurrent calls run one after another.
"""

from __future__ import annotations

import atexit
import marshal
import math
import mmap
import os
import threading
import time

import numpy as np

__all__ = ["bell_outcome_counts"]

# splitmix64 increment and finalizer multipliers
_K0 = 0x9E3779B97F4A7C15
_K1 = np.uint64(0xBF58476D1CE4E5B9)
_K2 = np.uint64(0x94D049BB133111EB)

_BLOCK_KEYS = 1 << 16  # 512 KiB per uint64 buffer
_TAIL_KEYS = 1 << 14  # candidates a worker queues before it tallies them
_LOW33 = (1 << 33) - 1
_MASK64 = (1 << 64) - 1

# A helper still running this long after its task pipe closed is killed.
_EXIT_WAIT_S = 5.0
_LOST = "a sampler helper process exited mid-call"
# A call hands out its groups of samples in at most this many chunks; 2-byte
# tokens of them fill 512 bytes, the least PIPE_BUF that POSIX allows.
_CHUNKS = 256

_LOCK = threading.Lock()  # calls in this process run one after another
# This process's (z, tmp, hit) block buffers and (zc, sample) candidate queue,
# reused across calls; a helper starts from a copy of its parent's.
_BUFFERS: tuple[np.ndarray, ...] = ()
_TEAM: _Team | None = None  # this process's helpers, once forked


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _buffers(block_keys, tail_keys) -> tuple[np.ndarray, ...]:
    """This process's buffers, (re)allocated when smaller than asked."""
    global _BUFFERS
    if not _BUFFERS or _BUFFERS[0].size < block_keys or _BUFFERS[3].size < tail_keys:
        _BUFFERS = (
            np.empty(block_keys, dtype=np.uint64),
            np.empty(block_keys, dtype=np.uint64),
            np.empty(block_keys, dtype=bool),
            np.empty(tail_keys, dtype=np.uint64),
            np.empty(tail_keys, dtype=np.int64),
        )
    return _BUFFERS


class _Tail:
    """One worker's queued candidates, and the folds of the samples it has finished.

    Candidates arrive in increasing sample order.  A flush gives each its error
    index, XOR-folds the indices per sample and tallies the folds; the last
    sample of a flush may go on in the next, so its partial fold is carried.
    """

    __slots__ = ("zc", "sample", "thresholds", "fill", "carry", "flips")

    def __init__(self, zc, sample, thresholds):
        self.zc = zc  # finalizer input of each candidate
        self.sample = sample  # and its sample index
        self.thresholds = thresholds
        self.fill = 0
        self.carry = (-1, 0)  # sample open across flushes, and its fold so far
        self.flips = np.zeros(4, dtype=np.int64)  # samples by fold; [0] is not kept

    def push(self, zb, idx, width, first):
        """Queue candidates ``idx`` of a block of ``width``-key rows from sample ``first``."""
        start = 0
        while start < idx.size:
            end = min(idx.size, start + self.zc.size - self.fill)
            stop = self.fill + end - start
            chunk = idx[start:end]
            np.take(zb, chunk, out=self.zc[self.fill:stop], mode="clip")
            sample = self.sample[self.fill:stop]
            np.floor_divide(chunk, width, out=sample)
            sample += first
            self.fill, start = stop, end
            if stop == self.zc.size:
                self.flush()

    def flush(self):
        fill, self.fill = self.fill, 0
        if not fill:
            return
        c1, c2, c3 = self.thresholds
        zc, sample = self.zc[:fill], self.sample[:fill]
        m = (zc ^ (zc >> 31)) >> 11
        # 3, 2, 1 below c3, c2, c1 (0 for candidates that do not flip)
        e = 3 * (m < c3) - (m < c2) - (m < c1)
        folds = np.bitwise_xor.reduceat(e, np.flatnonzero(np.diff(sample, prepend=-1)))
        open_sample, fold = self.carry
        if sample[0] == open_sample:
            folds[0] ^= fold
        else:
            self.flips[fold] += 1
        self.flips += np.bincount(folds[:-1], minlength=4)
        self.carry = (int(sample[-1]), int(folds[-1]))

    def counts(self, claimed):
        """Tally of ``claimed`` samples; those without a nonzero fold count as 0."""
        self.flush()
        self.flips[self.carry[1]] += 1
        self.flips[0] = claimed - self.flips[1:].sum()
        return self.flips


def _scan(template, offset, rows, first, ntot, cols, candidate, buffers, tail):
    """Hash samples ``first`` to ``first + rows - 1`` and queue their candidates.

    ``offset`` is the key of sample ``first`` at segment 0, and ``template``
    holds i*K1 + j*K2 for a block of ``rows`` x ``cols`` keys.
    """
    z, tmp, hit = buffers[:3]
    for c0 in range(0, ntot, cols):
        width = min(cols, ntot - c0)
        n = rows * width
        zb, tb, hb = z[:n], tmp[:n], hit[:n]
        np.add(template[:n], np.uint64((offset + c0 * int(_K2)) & _MASK64), out=zb)
        np.right_shift(zb, 30, out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, _K1, out=zb)
        np.right_shift(zb, 27, out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, _K2, out=zb)
        np.less_equal(zb, candidate, out=hb)
        tail.push(zb, np.flatnonzero(hb), width, first)


def _work(task, chunks) -> np.ndarray:
    """Tally of the chunks of samples that ``chunks`` hands this worker.

    Chunk c holds samples c*span to c*span + span - 1, in groups of ``rows``.
    ``task`` holds every constant of the kernel but the hash multipliers,
    so a helper takes nothing else from its copy of this module.
    """
    base, samples, ntot, rows, cols, c1, c2, c3, candidate, block_keys, tail_keys, span = task
    buffers = _buffers(block_keys, tail_keys)
    # key(lo + i, c0 + j) = template[i*width + j] + key(lo, c0)
    ikey = np.arange(rows, dtype=np.uint64) * _K1
    template = (ikey[:, None] + np.arange(cols, dtype=np.uint64) * _K2).ravel()
    thresholds = tuple(np.uint64(c) for c in (c1, c2, c3))
    tail = _Tail(buffers[3][:tail_keys], buffers[4][:tail_keys], thresholds)
    candidate = np.uint64(candidate)
    claimed = 0
    for chunk in chunks:
        for lo in range(chunk * span, min(chunk * span + span, samples), rows):
            r = min(rows, samples - lo)
            _scan(template, base + lo * int(_K1), r, lo, ntot, cols, candidate, buffers, tail)
            claimed += r
    return tail.counts(claimed)


def _claims(fd):
    """The chunks this worker takes from the claim pipe ``fd``, until it is empty.

    Each token is one 2-byte chunk index; a read of a pipe takes it whole, so
    no two workers take the same chunk.
    """
    while True:
        try:
            token = os.read(fd, 2)
        except BlockingIOError:
            return
        if not token:  # the caller has exited
            return
        yield int.from_bytes(token, "little")


def _send(fd, message):
    data = marshal.dumps(message)
    os.write(fd, len(data).to_bytes(4, "little") + data)  # under PIPE_BUF: one write


def _receive(fd):
    """The next message on ``fd``; EOFError once every writer has closed it."""
    return marshal.loads(_read(fd, int.from_bytes(_read(fd, 4), "little")))


def _read(fd, size) -> bytes:
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _serve(tasks, replies, claims):
    """A helper's life: one tally per task until its task pipe closes."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops the helpers
    while True:
        try:
            task = _receive(tasks)
        except EOFError:
            return
        try:
            reply = _work(task, _claims(claims)).tolist()
        except Exception as exc:  # reported to the caller, which raises it
            for _ in _claims(claims):  # no worker takes a further chunk
                pass
            reply = repr(exc)
        _send(replies, reply)


class _Team:
    """Helper processes forked from this one, and the claim pipe they share."""

    def __init__(self):
        self.claims = os.pipe()  # tokens of the chunks no worker has taken yet
        os.set_blocking(self.claims[0], False)
        self.helpers: list[tuple[int, int, int]] = []  # pid, task fd, reply fd
        self.idle = True  # every task sent has had its reply read

    def fork(self):
        """Start one more helper, with a task pipe to it and a reply pipe from it.

        The helper gets its own descriptor of the claim pipe, since the
        at-fork handler closes the team's in every child.
        """
        fds = ()
        try:
            fds += os.pipe()
            fds += os.pipe()
            fds += (os.dup(self.claims[0]),)
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        task_r, task_w, reply_r, reply_w, claims = fds
        if pid == 0:
            status = 1
            try:
                # Hold no descriptor of the parent but stdio and three pipe
                # ends, so that no pipe of the parent waits on this process.
                low = 3
                for fd in sorted((task_r, reply_w, claims)):
                    os.closerange(low, fd)
                    low = fd + 1
                os.closerange(low, os.sysconf("SC_OPEN_MAX"))
                _serve(task_r, reply_w, claims)
                status = 0
            finally:
                os._exit(status)
        for fd in (task_r, reply_w, claims):
            os.close(fd)
        self.helpers.append((pid, task_w, reply_r))

    def alive(self) -> bool:
        try:
            return all(os.waitpid(pid, os.WNOHANG)[0] == 0 for pid, _, _ in self.helpers)
        except ChildProcessError:  # reaped when it was found dead
            return False

    def run(self, task, count) -> np.ndarray:
        """Tally of ``task`` over the calling thread and ``count`` helpers."""
        helpers = self.helpers[:count]
        chunks = -(-task[1] // task[-1])  # at most _CHUNKS
        self.idle = False
        # The pipe is empty, and 2 * _CHUNKS bytes are at most PIPE_BUF: one write.
        os.write(self.claims[1], b"".join(c.to_bytes(2, "little") for c in range(chunks)))
        for _, tasks, _ in helpers:
            _send(tasks, task)
        try:
            counts = _work(task, _claims(self.claims[0]))
        except BaseException:
            for _ in _claims(self.claims[0]):  # no helper takes a further chunk
                pass
            raise
        finally:
            parts = []
            for _, _, replies in helpers:
                try:
                    parts.append(_receive(replies))
                except EOFError:
                    raise RuntimeError(_LOST) from None
            self.idle = True
        for part in parts:
            if isinstance(part, str):
                raise RuntimeError(f"sampler helper process failed: {part}")
            counts += part
        return counts

    def close(self):
        os.close(self.claims[0])
        os.close(self.claims[1])
        for _, tasks, replies in self.helpers:
            os.close(tasks)
            os.close(replies)


def _team(count) -> _Team | None:
    """This process's team, with up to ``count`` helpers; None where it has none."""
    global _TEAM
    if count < 1:
        return None
    if _TEAM is not None and not (_TEAM.idle and _TEAM.alive()):
        _stop_helpers()
    # Fork only while this is the process's one thread: a child forked beside
    # other threads can find a lock held that no thread of its own will free.
    if hasattr(os, "fork") and threading.active_count() == 1:
        try:
            if _TEAM is None:
                _TEAM = _Team()
            while len(_TEAM.helpers) < count:
                _TEAM.fork()
        except OSError:  # out of memory, processes or descriptors: use those there are
            pass
    return _TEAM if _TEAM is not None and _TEAM.helpers else None


def _stop_helpers() -> bool:
    """Close the pipes to this process's helpers and reap them.

    A helper exits when its task pipe closes; one still running
    ``_EXIT_WAIT_S`` seconds later is killed, and the result is then False.
    """
    global _TEAM
    team, _TEAM = _TEAM, None
    if team is None:
        return True
    team.close()
    deadline = time.monotonic() + _EXIT_WAIT_S
    exited = True
    for pid, _, _ in team.helpers:
        try:
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if time.monotonic() > deadline:
                    import signal

                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    exited = False
                    break
                time.sleep(0.001)
        except ChildProcessError:  # reaped when it was found dead
            pass
    return exited


def _forget_helpers():
    """In a child forked from this process: drop its parent's helpers and lock."""
    global _LOCK, _TEAM
    _LOCK = threading.Lock()
    if _TEAM is not None:
        _TEAM.close()
        _TEAM = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)
atexit.register(_stop_helpers)


def bell_outcome_counts(seed, samples, n1, n2, t1, t2, t3) -> np.ndarray:
    """Tally of the folded two-arm error index over all samples.

    Walks ``n1`` segments on one arm and ``n2`` on the other, drawing error
    index 1, 2, 3 with probabilities ``t1``, ``t2 - t1``, ``t3 - t2`` per
    segment (0 otherwise; 0 <= t1 <= t2 <= t3 <= 1), and XOR-folds the
    indices of each sample.  Returns int64 counts indexed by the folded index
    m = k XOR l in {0, 1, 2, 3}.
    """
    ntot = n1 + n2
    # u < t exactly when z >> 11 < ceil(t * 2**53); the scaling is exact
    c1, c2, c3 = (math.ceil(t * 2.0**53) for t in (t1, t2, t3))
    if ntot == 0 or c3 == 0:
        counts = np.zeros(4, dtype=np.int64)
        counts[0] = samples
        return counts
    # A flip needs z <= L = (c3 << 11) - 1.  The last finalizer step keeps
    # bits 33..63, so its input then passes the same test on those bits.
    candidate = ((c3 << 11) - 1) | _LOW33
    cols = min(ntot, _BLOCK_KEYS)
    rows = max(1, min(samples, _BLOCK_KEYS // ntot))
    groups = -(-samples // rows)
    span = rows * -(-groups // _CHUNKS)  # samples per chunk
    base = seed * _K0 & _MASK64
    task = (base, samples, ntot, rows, cols, c1, c2, c3, candidate, _BLOCK_KEYS, _TAIL_KEYS, span)
    with _LOCK:
        helpers = min(_usable_cpus(), groups) - 1
        team = _team(helpers)
        if team is None:
            return _work(task, range(-(-samples // span)))
        return team.run(task, helpers)
