"""Per-layer probes: timing wrappers around each module's public functions.

The program has no spans inside its engine or SMPC protocol, so the traced
run measures layers from outside: every probe replaces a public name with a
wrapper that counts calls and accumulates busy time. Two rules keep the
numbers honest:

- A wrapper is installed on the name the caller resolves. Methods are
  patched on their class. ``generate_udf_application`` is imported by name
  into the worker and master modules, so every module-level binding of it is
  replaced. ``Worker.handle`` is bound into the transport when a federation
  is built, so probes must be installed before the federation is.
- A layer re-entered on the same thread (``Database.query`` calls
  ``Database.execute``) is timed once, at the outermost call.

Busy time is thread-summed: four workers executing SQL at once for one
second add four seconds. ``wall_s`` is the time at least one thread was
inside the layer, so ``wall_s`` divided by the run's wall time is the
layer's share of the run.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Layer:
    __slots__ = ("calls", "busy_s", "wall_s", "active", "entered")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.active = 0
        self.entered = 0.0


class Probes:
    """Installable wrappers plus the counters they fill."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.layers: dict[str, Layer] = defaultdict(Layer)
            self.counts: dict[str, float] = defaultdict(float)
            #: (smpc job id, seconds) of every aggregation, classified later.
            self.smpc_calls: list[tuple[str, float]] = []

    # ------------------------------------------------------------ recording

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _enter(self, names: tuple[str, ...], now: float) -> None:
        with self._lock:
            for name in names:
                layer = self.layers[name]
                if layer.active == 0:
                    layer.entered = now
                layer.active += 1

    def _exit(self, names: tuple[str, ...], started: float, now: float) -> None:
        with self._lock:
            for name in names:
                layer = self.layers[name]
                layer.calls += 1
                layer.busy_s += now - started
                layer.active -= 1
                if layer.active == 0:
                    layer.wall_s += now - layer.entered

    def wrap(
        self,
        layer: str,
        function: Callable,
        label: Callable[..., str] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """A wrapper timing ``function`` under ``layer``.

        ``label(*args)`` adds a sub-layer ``layer.<label>``; ``after(result,
        *args)`` records counts once the call returned, outside the timed
        interval, and may read the call's duration from :meth:`last_elapsed`.
        """
        probes = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not probes.enabled:
                return function(*args, **kwargs)
            depth = probes._local.__dict__
            if depth.get(layer):
                return function(*args, **kwargs)
            names = (layer, f"{layer}.{label(*args, **kwargs)}") if label else (layer,)
            depth[layer] = True
            started = time.perf_counter()
            probes._enter(names, started)
            try:
                result = function(*args, **kwargs)
            finally:
                now = time.perf_counter()
                probes._exit(names, started, now)
                depth[layer] = False
                depth["elapsed"] = now - started
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def last_elapsed(self) -> float:
        """Duration of the calling thread's most recent timed call."""
        return self._local.__dict__.get("elapsed", 0.0)

    # ----------------------------------------------------------- patching

    def patch_method(self, owner: type, name: str, layer: str, **options: Any) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(layer, raw.__func__, **options))
        else:
            replacement = self.wrap(layer, raw, **options)
        setattr(owner, name, replacement)
        self._undo.append(lambda: setattr(owner, name, raw))

    def patch_function(self, function: Callable, layer: str, **options: Any) -> None:
        """Replace every module-level binding of ``function`` in the program."""
        replacement = self.wrap(layer, function, **options)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, replacement)
                    self._undo.append(
                        lambda m=module, a=attribute: setattr(m, a, function)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self) -> None:
        """Wrap every layer the benchmark reports. Call before set-up."""
        import repro.algorithms  # noqa: F401  (binds every imported name first)
        from repro.durability.checkpoint import CheckpointStore
        from repro.durability.recovery import DurabilityManager
        from repro.engine.column import Column
        from repro.engine.database import Database
        from repro.engine.table import Table
        from repro.federation.master import Master
        from repro.federation.transport import Transport
        from repro.federation.worker import Worker
        from repro.smpc.cluster import SMPCCluster
        from repro.udfgen import generator

        def rows_out(result, *_args, **_kwargs):
            if result is not None:
                self.count("engine.execute.rows_out", result.num_rows)

        def column_cells(result, *_args, **_kwargs):
            self.count("engine.ingest.cells", len(result))

        def table_cells(result, *_args, **_kwargs):
            self.count("engine.ingest.cells", result.num_rows * result.num_columns)

        def send_kind(result, transport, sender, receiver, kind, payload=None):
            self.count(f"transport.messages.{_kind_label(kind)}")

        def send_many_kinds(result, transport, sender, requests, on_error="raise"):
            for _receiver, kind, _payload in requests:
                self.count(f"transport.messages.{_kind_label(kind)}")

        def smpc_job(result, cluster, job_id, noise=None):
            with self._lock:
                self.smpc_calls.append((job_id, self.last_elapsed()))

        def checkpoint_bytes(result, _store, checkpoint):
            body = json.dumps(checkpoint.to_dict(), sort_keys=True, separators=(",", ":"))
            self.count("checkpoint.bytes", len(body))
            self.count("checkpoint.writes")

        self.patch_method(Database, "execute", "engine.execute", after=rows_out)
        self.patch_method(Column, "from_values", "engine.ingest", after=column_cells)
        self.patch_method(Table, "from_rows", "engine.ingest", after=table_cells)
        self.patch_function(generator.generate_udf_application, "udfgen.generate")
        self.patch_method(Transport, "send", "transport.send", after=send_kind)
        self.patch_method(Transport, "send_many", "transport.send", after=send_many_kinds)
        self.patch_method(Master, "run_local_step", "master.local_step")
        self.patch_method(Master, "gather_transfers_plain", "master.gather")
        self.patch_method(Master, "gather_transfers_secure", "master.gather_secure")
        self.patch_method(Master, "broadcast_transfer", "master.broadcast")
        self.patch_method(Master, "run_global_step", "master.global_step")
        self.patch_method(
            Worker, "handle", "worker.handle",
            label=lambda _worker, message: _kind_label(message.kind),
        )
        self.patch_method(SMPCCluster, "aggregate", "smpc.aggregate", after=smpc_job)
        self.patch_method(SMPCCluster, "import_shares", "smpc.import_shares")
        for name in ("record_submit", "record_dispatch", "record_terminal", "record_read"):
            self.patch_method(DurabilityManager, name, "durability")
        self.patch_method(CheckpointStore, "save", "checkpoint.save", after=checkpoint_bytes)


#: Message kinds reported one by one; the rest are summed as ``other``.
KINDS = ("run_udf", "put_transfer", "get_secure_payload", "fetch_table")


def _kind_label(kind: str) -> str:
    return kind if kind in KINDS else "other"
