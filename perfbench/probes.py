"""Layer probes for the traced benchmark run.

The traced run wraps public functions of each layer with timers and
counters.  Nothing here edits the program: :meth:`Probes.wrap` replaces a
module or class attribute for the duration of the traced repetitions and
:meth:`Probes.close` puts the original back.

Each probe adds its elapsed time to ``seconds[name]`` and one call to
``calls[name]``.  A call that starts while no other probe is open on the
same thread is a *top-level* call; its time also goes to
``covered[thread name]``, which the attribution-coverage check compares
against the wall time of that thread's work.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Probes:
    """Timers and counters around wrapped functions, safe across threads."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.covered: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def add_count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def add_seconds(self, name: str, value: float) -> None:
        with self._lock:
            self.seconds[name] += value

    def _record(self, name: str, elapsed: float, top_level: bool) -> None:
        with self._lock:
            self.seconds[name] += elapsed
            self.calls[name] += 1
            if top_level:
                self.covered[threading.current_thread().name] += elapsed

    def timed(self, name: str, function, on_result=None):
        """*function* wrapped to time every call as layer *name*.

        *on_result* is called as ``on_result(result, args, kwargs)`` after a
        call that returned, to read counters off the result.
        """
        local = self._local

        def probe(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                local.depth = depth
                self._record(name, time.perf_counter() - started, depth == 0)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return probe

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to *replacement* until :meth:`close`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as layer *name*."""
        self.patch(owner, attr, self.timed(name, getattr(owner, attr), on_result))

    def close(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
