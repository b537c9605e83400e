"""Call tracing from outside the library, for the benchmark's traced runs.

:class:`CallTracer` replaces a public function or method with a wrapper
that times and counts each call and keeps a stack, so every call's self
time (its duration minus the time of traced calls nested inside it) is
known.  Patches are undone by :meth:`CallTracer.restore`.  Untraced runs
never install a wrapper.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple


@dataclass
class CallStats:
    """Totals for one traced name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class CallTracer:
    """Time and count calls to patched functions, with nesting.

    ``prefix`` is prepended to every recorded name, so one tracer can
    keep separate books per input (``"sparse."``/``"dense."``).
    ``on_exit`` hooks run after a traced call returns, with its start,
    end, return value and arguments.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, CallStats] = defaultdict(CallStats)
        self.prefix = ""
        self._stack: List[float] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self.on_exit: Dict[str, Callable[[float, float, Any, tuple], None]] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = time.perf_counter()
            self._stack.append(0.0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = time.perf_counter()
                nested = self._stack.pop()
                duration = ended - started
                record = self.stats[self.prefix + name]
                record.calls += 1
                record.total_s += duration
                record.self_s += duration - nested
                if self._stack:
                    self._stack[-1] += duration
                hook = self.on_exit.get(name)
                if hook is not None:
                    hook(started, ended, result, args)

        return traced

    def patch(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a traced wrapper."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def get(self, name: str) -> CallStats:
        return self.stats.get(name, CallStats())
