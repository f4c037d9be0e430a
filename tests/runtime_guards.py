"""Runtime guards armed for every tier-1 test (wired in ``tests/conftest.py``).

Three invariants that a static call graph could only approximate are
checked live while the suite runs:

* **Entropy tripwire (formerly lint rule T401).**  The module-level
  functions of the modules in ``ENTROPY_MODULES`` and the module functions
  named by ``ENTROPY_CALLS``/``WALLCLOCK_CALLS`` are wrapped.  A wrapped call
  raises ``AssertionError`` when any frame on the stack belongs to a
  ``SIM_LAYERS`` module other than ``repro.sim.rng`` — however many helper
  frames sit between, and whether the helper was reached by a plain call,
  ``getattr`` or a callback.  Classes (``random.Random``) stay unwrapped,
  so ``RandomStreams`` draws and ``isinstance`` checks are untouched.
  ``datetime`` classmethods cannot be patched and stay lint rule D102's job;
  a name bound by ``from random import random`` before the guard armed keeps
  the unwrapped function, and only the digest pins can see what it draws.
* **Store lock (formerly L501).**  An audit hook judges file writes: ``open``
  with write flags, ``os.rename`` (which ``os.replace`` raises too),
  ``os.truncate``, ``os.remove``, ``os.mkdir`` and ``os.rmdir``.  When a
  ``repro/results/store.py`` frame is on the stack, a ``RunStore`` on the
  stack must hold its ``_lock``.  ``_StoreLock.__enter__`` is exempt: taking
  the lock cannot require holding it.
* **No store handle in a child process (formerly L502).**  The same hook
  fails a store write through a ``RunStore`` opened in another process (a
  handle inherited across a fork), and any store write under the
  supervisor's worker loop.  ``RunStore`` refuses to pickle, so a handle
  cannot reach a worker through a pipe or a spawn either.  A child that
  opens its own handle is an ordinary concurrent writer.

A violation raises in the process that commits it.  In the test process it
fails the test; in a supervised worker it fails the attempt, and the job is
quarantined with the message in its attempt trail.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import types
import weakref
from typing import Callable, Dict, Iterator, Optional, Tuple

import pytest

from repro.experiments import supervisor
from repro.lint.config import RNG_MODULE_SUFFIX, SIM_LAYERS
from repro.lint.rules_determinism import ENTROPY_CALLS, ENTROPY_MODULES, WALLCLOCK_CALLS
from repro.results import store as store_module
from repro.results.store import RunStore, _StoreLock

#: The one simulation module allowed to touch ``random`` ("repro.sim.rng").
RNG_MODULE = RNG_MODULE_SUFFIX.removesuffix(".py").replace("/", ".")

_WRITE_EVENTS = frozenset(
    ("open", "os.rename", "os.truncate", "os.remove", "os.mkdir", "os.rmdir")
)
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_TRUNC
_STORE_GLOBALS = vars(store_module)
_LOCK_ENTER = _StoreLock.__enter__.__code__
_WORKER_LOOP = supervisor._worker_main.__code__

#: The process each live ``RunStore`` handle was opened in.
_opened_in: "weakref.WeakKeyDictionary[RunStore, int]" = weakref.WeakKeyDictionary()
_armed = False


# ------------------------------------------------------- entropy tripwire


def sim_module(frame: Optional[types.FrameType]) -> Optional[str]:
    """The innermost simulation-layer module on the stack from *frame* out."""
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("repro.") and name.split(".")[1] in SIM_LAYERS:
            if name != RNG_MODULE:
                return name
        frame = frame.f_back
    return None


def tripwire(dotted: str, function: Callable) -> Callable:
    """*function*, raising when a simulation-layer frame is on the stack."""

    @functools.wraps(function)
    def guarded(*args, **kwargs):
        caller = sys._getframe(1)
        module = sim_module(caller)
        if module is not None:
            raise AssertionError(
                f"{module} reached {dotted}() (called from "
                f"{caller.f_globals.get('__name__')}); simulation code draws "
                "through RandomStreams and reads only Simulator.now"
            )
        return function(*args, **kwargs)

    return guarded


def tripwire_targets() -> Dict[str, Tuple[types.ModuleType, str]]:
    """``dotted name -> (module, attribute)`` of every function to wrap."""
    targets: Dict[str, Tuple[types.ModuleType, str]] = {}
    for module_name in ENTROPY_MODULES:
        module = importlib.import_module(module_name)
        for attr, value in vars(module).items():
            if not attr.startswith("_") and callable(value) and not isinstance(value, type):
                targets[f"{module_name}.{attr}"] = (module, attr)
    for dotted in (*ENTROPY_CALLS, *WALLCLOCK_CALLS):
        owner, _, attr = dotted.rpartition(".")
        try:
            module = importlib.import_module(owner)
        except ModuleNotFoundError:  # a class such as datetime.datetime
            continue
        if hasattr(module, attr):
            targets[dotted] = (module, attr)
    return targets


# ------------------------------------------------------ store-write audit


def audit_store_write(event: str, args: tuple) -> None:
    """Audit hook: fail a store write without the lock or from a child."""
    if event not in _WRITE_EVENTS or not _armed:
        return
    if event == "open" and not args[2] & _WRITE_FLAGS:
        return
    in_store = in_worker = False
    stores = []
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_globals is _STORE_GLOBALS:
            if frame.f_code is _LOCK_ENTER:
                return
            in_store = True
            handle = frame.f_locals.get("self")
            if isinstance(handle, RunStore):
                stores.append(handle)
        elif frame.f_code is _WORKER_LOOP:
            in_worker = True
        frame = frame.f_back
    if not in_store:
        return
    pid = os.getpid()
    where = f"{event} {args[0]}"
    if in_worker:
        raise AssertionError(
            f"store write from a child process: supervised worker {pid} ran "
            f"{where}; workers send records back and the parent appends them"
        )
    for handle in stores:
        opened_in = _opened_in.get(handle, pid)
        if opened_in != pid:
            raise AssertionError(
                f"store write from a child process: {where} through a RunStore "
                f"opened in process {opened_in}, written in process {pid}; "
                "re-open the run directory in the process that writes it"
            )
    if not any(handle._lock._depth for handle in stores):
        raise AssertionError(
            f"store write without the store lock: {where} in "
            "repro/results/store.py; take `with self._lock:` first"
        )


@contextlib.contextmanager
def armed() -> Iterator[None]:
    """Wrap the entropy/wall-clock functions and arm the store-write audit.

    The audit hook itself is installed once, when ``tests/conftest.py`` is
    imported (audit hooks cannot be removed); outside this context it
    returns at once.
    """
    global _armed
    init = RunStore.__init__

    @functools.wraps(init)
    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _opened_in[self] = os.getpid()

    with pytest.MonkeyPatch.context() as patch:
        for dotted, (module, attr) in tripwire_targets().items():
            patch.setattr(module, attr, tripwire(dotted, getattr(module, attr)))
        patch.setattr(RunStore, "__init__", recording_init)
        _armed = True
        try:
            yield
        finally:
            _armed = False
