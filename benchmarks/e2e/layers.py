"""Per-layer attribution, measured from outside the program.

A :class:`LayerProfiler` is a deterministic ``sys.setprofile`` hook kept
in this directory: the program carries no timers, switches or spans for
it.  The traced pass is separate from the timed passes, which run with
no hook installed.

How time is attributed
----------------------
Layers are this repo's modules (:data:`LAYERS`).  Every Python function
belongs to the layer of the file it was defined in; a function defined
outside ``src/repro`` (the standard library: ``copy``, ``heapq``,
``pickle``, ``dataclasses`` ...) and every C function inherits the layer
that called it, so ``deepcopy`` called by ``Snapshot.fork`` is
``scenario`` time and ``heappush`` called by ``EventQueue.push`` is
``netsim`` time.  The hook keeps a stack of the layer of each live
frame and charges the time between two profiler events to the layer on
top; the hook's own time (between its first and its last clock read) is
charged to nobody.  Self times therefore sum to the traced wall by
construction, and ``share`` sums to 1.

Each call that crosses from one layer into another is a *boundary
span*: ``(caller layer -> callee function)`` with its call count, self
time (charged while it was the innermost crossing) and cumulative time.
The aggregated spans are what :meth:`LayerProfiler.write` puts in
``out/trace-<workload>.json``.

The hook also counts calls of every function (exact, by code object)
and, for the few functions in :data:`SIZED_RETURNS`, sums ``len`` of
what they return — that is how bytes encoded and bytes exported are
measured without a counter in the program.

The hook costs several times the untraced wall and inflates functions
with many short calls; shares find candidates, the timed passes decide.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names, in the order they are reported.
LAYERS = (
    "backend",
    "scenario",
    "netsim",
    "netsim.trace",
    "link",
    "ip.packet",
    "ip.dataplane",
    "transport",
    "core",
    "wire.roles",
    "wire.codec",
    "wire.engine",
    "wire.driver",
    "telemetry",
    "obs",
    "partition",
    "workloads",
    "other",
)

#: Most specific first: path under ``src/repro`` -> layer.
_PATH_RULES = (
    ("backend.py", "backend"),
    ("scenario/", "scenario"),
    ("netsim/trace.py", "netsim.trace"),
    ("netsim/", "netsim"),
    ("link/", "link"),
    ("ip/packet.py", "ip.packet"),
    ("ip/options.py", "ip.packet"),
    ("ip/address.py", "ip.packet"),
    ("ip/checksum.py", "ip.packet"),
    ("ip/protocols.py", "ip.packet"),
    ("ip/", "ip.dataplane"),
    ("transport/", "transport"),
    ("core/", "core"),
    ("wire/roles.py", "wire.roles"),
    ("wire/logic.py", "wire.roles"),
    ("wire/codec.py", "wire.codec"),
    ("wire/engine.py", "wire.engine"),
    ("wire/topo.py", "wire.engine"),
    ("wire/driver.py", "wire.driver"),
    ("telemetry/", "telemetry"),
    ("metrics/", "telemetry"),
    ("obs/", "obs"),
    ("partition/", "partition"),
    ("workloads/", "workloads"),
)

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_path(filename: str) -> Optional[str]:
    """The layer a source file belongs to; ``None`` for code outside the
    program (it inherits its caller's layer).  Program files no rule
    names (``harness``, ``errors`` ...) are ``other``."""
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return None
    relative = filename[at + len(_REPRO_MARK):].replace(os.sep, "/")
    for prefix, layer in _PATH_RULES:
        if relative.startswith(prefix):
            return layer
    return "other"


def _sum_blob_bytes(exports) -> int:
    return sum(len(export[3]) for export in exports)


#: ``(path under src/repro, qualname)`` -> size of the returned value.
SIZED_RETURNS: Dict[Tuple[str, str], Callable[[object], int]] = {
    ("wire/codec.py", "encode_packet"): len,
    ("partition/runtime.py", "PartitionRuntime.drain_outbox"): _sum_blob_bytes,
}


def _function_key(code) -> Tuple[str, str]:
    filename = code.co_filename
    at = filename.rfind(_REPRO_MARK)
    if at >= 0:
        filename = filename[at + len(_REPRO_MARK):].replace(os.sep, "/")
    return filename, getattr(code, "co_qualname", code.co_name)


class LayerProfiler:
    """Charge wall time to layers while a block runs.

    Use as a context manager around the call to trace; read
    :attr:`self_s`, :attr:`calls_into`, :meth:`calls` and
    :meth:`returned_size` afterwards.
    """

    def __init__(self) -> None:
        index = {layer: i for i, layer in enumerate(LAYERS)}
        self._other = index["other"]
        n = len(LAYERS)
        self._self_ns = [0] * n
        self._calls_into = [0] * n
        #: code -> (layer index or -1 to inherit, sizer or None)
        self._code_info: Dict[object, Tuple[int, Optional[Callable]]] = {}
        # Keyed by code object while the hook runs, by (path, qualname) after.
        self._ncalls: Dict[object, int] = {}
        self._sized: Dict[object, int] = {}
        #: span key (caller layer, callee code) -> [calls, self ns, cumulative ns]
        self._spans: Dict[Tuple[int, object], List[int]] = {}
        self._layer_index = index
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    def _resolve(self, code) -> Tuple[int, Optional[Callable]]:
        layer = layer_of_path(code.co_filename)
        info = (
            -1 if layer is None else self._layer_index[layer],
            SIZED_RETURNS.get(_function_key(code)) if layer is not None else None,
        )
        self._code_info[code] = info
        return info

    def __enter__(self) -> "LayerProfiler":
        clock = time.perf_counter_ns
        self_ns = self._self_ns
        calls_into = self._calls_into
        code_info = self._code_info
        resolve = self._resolve
        ncalls = self._ncalls
        sized = self._sized
        spans = self._spans
        # One entry per live Python frame: (layer, span record, charged
        # total at entry or -1 when the call crossed no boundary, sizer).
        root = [0, 0, 0]
        stack = [(self._other, root, -1, None)]
        # [last clock read, total ns charged so far]
        state = [0, 0]

        def hook(frame, event, arg):
            now = clock()
            top = stack[-1]
            elapsed = now - state[0]
            self_ns[top[0]] += elapsed
            top[1][1] += elapsed
            state[1] += elapsed
            if event == "call":
                code = frame.f_code
                info = code_info.get(code)
                if info is None:
                    info = resolve(code)
                ncalls[code] = ncalls.get(code, 0) + 1
                layer = info[0]
                if layer < 0 or layer == top[0]:
                    stack.append((top[0], top[1], -1, info[1]))
                else:
                    calls_into[layer] += 1
                    key = (top[0], code)
                    span = spans.get(key)
                    if span is None:
                        span = spans[key] = [0, 0, 0]
                    span[0] += 1
                    stack.append((layer, span, state[1], info[1]))
            elif event == "return":
                if len(stack) > 1:
                    done = stack.pop()
                    if done[2] >= 0:
                        done[1][2] += state[1] - done[2]
                    if done[3] is not None and arg is not None:
                        code = frame.f_code
                        sized[code] = sized.get(code, 0) + done[3](arg)
            # c_call / c_return / c_exception: the C function's time stays
            # with the layer that called it; nothing to push or pop.
            state[0] = clock()

        self._started = time.perf_counter()
        state[0] = clock()
        sys.setprofile(hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        self.wall_s = time.perf_counter() - self._started
        # One function can own several code objects (redefinitions); fold
        # the per-code tables by (path, qualname) once, for the lookups.
        for table in (self._ncalls, self._sized):
            folded: Dict[Tuple[str, str], int] = {}
            for code, count in table.items():
                key = _function_key(code)
                folded[key] = folded.get(key, 0) + count
            table.clear()
            table.update(folded)

    # ------------------------------------------------------------------
    @property
    def self_s(self) -> Dict[str, float]:
        return {layer: self._self_ns[i] / 1e9 for i, layer in enumerate(LAYERS)}

    @property
    def charged_s(self) -> float:
        """Everything charged to some layer (traced wall minus hook time)."""
        return sum(self._self_ns) / 1e9

    @property
    def calls_into(self) -> Dict[str, int]:
        return {layer: self._calls_into[i] for i, layer in enumerate(LAYERS)}

    def calls(self, path: str, qualname: str) -> int:
        """Exact number of calls of the function defined at ``path``
        (relative to ``src/repro``) with that qualified name."""
        return self._ncalls.get((path, qualname), 0)

    def returned_size(self, path: str, qualname: str) -> int:
        return self._sized.get((path, qualname), 0)

    def spans(self) -> List[dict]:
        """Aggregated boundary spans, most expensive first."""
        out = []
        for (caller, code), (calls, self_ns, cum_ns) in self._spans.items():
            path, qualname = _function_key(code)
            out.append(
                {
                    "caller_layer": LAYERS[caller],
                    "callee_layer": LAYERS[self._code_info[code][0]],
                    "callee": f"{path}:{qualname}",
                    "calls": calls,
                    "self_s": self_ns / 1e9,
                    "cumulative_s": cum_ns / 1e9,
                }
            )
        out.sort(key=lambda span: -span["cumulative_s"])
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the aggregated spans and layer totals as one JSON file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        charged, calls_into = self.charged_s, self.calls_into
        document = dict(header)
        document.update(
            {
                "traced_wall_s": self.wall_s,
                "charged_s": charged,
                "layers": {
                    layer: {
                        "self_s": self_s,
                        "share": self_s / charged if charged else 0.0,
                        "calls_into": calls_into[layer],
                    }
                    for layer, self_s in self.self_s.items()
                },
                "spans": self.spans(),
            }
        )
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
