"""Benchmark-side span tracing: wrap public callables, record, aggregate.

The benchmark measures every layer from outside.  For the traced pass
:class:`Tracer` replaces each callable named in :data:`TARGETS` with a
thin wrapper — at its defining module or class *and* in every loaded
``repro`` module that imported the name — and restores the originals
afterwards.  Each call becomes one span row::

    [name, start_s, end_s, parent_index, request, units]

``parent_index`` is the row of the enclosing span (``-1`` at top level),
so a layer's *self* time is its span minus the part its child spans
cover.  ``request`` is a request id where the call carries one (or the
``id()`` of a ``RequestKV``, resolved to its request when rows are
exported); ``units`` is the work the call did (groups, blocks, tokens).
Rows stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict

__all__ = ["TARGETS", "Tracer", "phase_totals"]

NAME, START, END, PARENT, REQUEST, UNITS = range(6)


# ----------------------------------------------------------------------
# Per-target hooks: ``hook(tracer, row, args, kwargs, result)`` runs after
# the wrapped call returned and may fill ``row[REQUEST]`` / ``row[UNITS]``
# or bump ``tracer.counters``.  Kept tiny: they run inside the traced pass.
# ----------------------------------------------------------------------

def _units_result_groups(tracer, row, args, kwargs, result):
    row[UNITS] = result.num_groups


def _plan_encoding(tracer, row, args, kwargs, result):
    row[UNITS] = result.num_groups
    tracer.counters["clipped_symbols"] += int(result.clipped_symbols.sum())
    tracer.counters["padded_outliers"] += int(result.padded_outliers.sum())


def _units_plan_arg(tracer, row, args, kwargs, result):
    row[UNITS] = args[1].num_groups


def _units_first_rows(tracer, row, args, kwargs, result):
    row[UNITS] = int(args[0].shape[0])


def _units_result_rows(tracer, row, args, kwargs, result):
    row[UNITS] = int(result.shape[0])


def _units_blocks_arg(tracer, row, args, kwargs, result):
    row[UNITS] = int(args[1].shape[0])


def _encode_tokens(tracer, row, args, kwargs, result):
    row[UNITS] = result.num_groups
    tracer.counters["compressed_nbytes"] += result.nbytes
    tracer.counters["compressed_values"] += (
        result.token_shape[0] * result.token_shape[1]
    )


def _request_arg(tracer, row, args, kwargs, result):
    row[REQUEST] = args[1].request_id


def _activate(tracer, row, args, kwargs, result):
    request, source = args[1], args[2]
    row[REQUEST] = request.request_id
    tracer.kv_owner[id(request.kv)] = request.request_id
    if source == "waiting" and tracer.sim_clock is not None:
        tracer.queue_waits.append(
            tracer.sim_clock() - request.metrics.arrival_s
        )


def _request_result(tracer, row, args, kwargs, result):
    row[REQUEST] = result.request_id


def _kv_self(tracer, row, args, kwargs, result):
    row[REQUEST] = id(args[0])


def _frontend_submit(tracer, row, args, kwargs, result):
    arrival = kwargs.get("arrival_s")
    if arrival is not None:
        tracer.submit_lags.append(args[0].clock() - arrival)
    if result.request is not None:
        row[REQUEST] = result.request.request_id


def _submit_turn(tracer, row, args, kwargs, result):
    session = args[0]
    row[REQUEST] = f"{session.session_id}/turn-{session.num_turns - 1}"


#: ``(span name, module path, owner, attribute, hook)``.  ``owner`` is a
#: class name inside the module, or ``None`` for a module-level function
#: (those are also patched wherever they were imported by name).  The span
#: name's dotted prefix is the layer the time is attributed to.
TARGETS = (
    ("core.patterns.select_patterns_minmax", "repro.core.patterns", None,
     "select_patterns_minmax", _units_first_rows),
    ("core.codec.plan_encoding", "repro.core.codec", None,
     "plan_encoding", _plan_encoding),
    ("core.codec.reconstruct", "repro.core.codec", None,
     "reconstruct", _units_plan_arg),
    ("core.codec.encode_plan", "repro.core.codec", "EccoTensorCodec",
     "encode_plan", None),
    ("core.codec.plan_from_blocks", "repro.core.codec", "EccoTensorCodec",
     "plan_from_blocks", _units_result_groups),
    ("core.blocks.pack_blocks", "repro.core.blocks", None,
     "pack_blocks", _units_result_rows),
    ("core.blocks.unpack_blocks", "repro.core.blocks", None,
     "unpack_blocks", _units_blocks_arg),
    ("core.kv.encode_tokens", "repro.core.kv", "KVCacheCodec",
     "encode_tokens", _encode_tokens),
    ("core.kv.decode_tokens", "repro.core.kv", "KVCacheCodec",
     "decode_tokens", None),
    ("core.kv.decode_all", "repro.core.kv", "KVCacheCodec",
     "decode_all", _units_result_rows),
    ("core.kv.append", "repro.core.kv", "KVCacheStream", "append", None),
    ("core.kv.append_tokens", "repro.core.kv", "KVCacheStream",
     "append_tokens", None),
    ("core.kv.append_compressed", "repro.core.kv", "KVCacheStream",
     "append_compressed", None),
    ("core.kv.read_keys", "repro.core.kv", "KVCacheStream",
     "read_keys", None),
    ("core.kv.read_values", "repro.core.kv", "KVCacheStream",
     "read_values", None),
    ("core.kv.coalesce", "repro.core.kv", "KVCacheStream", "coalesce", None),
    ("core.kv.merge_token_segments", "repro.core.kv", None,
     "merge_token_segments", None),
    ("core.kv.split_token_segment", "repro.core.kv", None,
     "split_token_segment", None),
    ("llm.model.forward", "repro.llm.model", "ProxyModel", "forward", None),
    ("llm.decode.decode_step", "repro.llm.decode", None,
     "decode_step", None),
    ("llm.decode.prefill_chunk", "repro.llm.decode", None,
     "prefill_chunk", None),
    ("serve.storage.encode_prompt_side", "repro.serve.storage",
     "EccoRequestKV", "_encode_prompt_side", _kv_self),
    ("serve.storage.encode_prompt_side", "repro.serve.storage",
     "Fp16RequestKV", "_encode_prompt_side", _kv_self),
    ("serve.storage.commit_prompt", "repro.serve.storage", "RequestKV",
     "commit_prompt", _kv_self),
    ("serve.storage.ingest_chunk", "repro.serve.storage", "RequestKV",
     "ingest_chunk", _kv_self),
    ("serve.storage.commit_chunk", "repro.serve.storage", "RequestKV",
     "commit_chunk", _kv_self),
    ("serve.storage.append_token_layer", "repro.serve.storage", "RequestKV",
     "append_token_layer", _kv_self),
    ("serve.storage.commit_token", "repro.serve.storage", "RequestKV",
     "commit_token", _kv_self),
    ("serve.storage.attach_cached_prefix", "repro.serve.storage",
     "RequestKV", "attach_cached_prefix", _kv_self),
    ("serve.storage.swap_out", "repro.serve.storage", "RequestKV",
     "swap_out", _kv_self),
    ("serve.storage.swap_in", "repro.serve.storage", "RequestKV",
     "swap_in", _kv_self),
    ("serve.storage.release", "repro.serve.storage", "RequestKV",
     "release", _kv_self),
    ("serve.storage.read", "repro.serve.storage", "EccoRequestKV",
     "read", _kv_self),
    ("serve.storage.read", "repro.serve.storage", "Fp16RequestKV",
     "read", _kv_self),
    ("serve.pool.acquire", "repro.serve.pool", "PagedKVPool",
     "acquire", None),
    ("serve.pool.release", "repro.serve.pool", "PagedKVPool",
     "release", None),
    ("serve.pool.lookup_prefix", "repro.serve.pool", "PagedKVPool",
     "lookup_prefix", None),
    ("serve.pool.split_page", "repro.serve.pool", "PagedKVPool",
     "split_page", None),
    ("serve.pool.swap_out", "repro.serve.pool", "PagedKVPool",
     "swap_out", None),
    ("serve.pool.swap_in", "repro.serve.pool", "PagedKVPool",
     "swap_in", None),
    ("serve.pool.swap_private_out", "repro.serve.pool", "PagedKVPool",
     "swap_private_out", None),
    ("serve.pool.swap_private_in", "repro.serve.pool", "PagedKVPool",
     "swap_private_in", None),
    ("serve.pool.reserve_private", "repro.serve.pool", "PagedKVPool",
     "reserve_private", None),
    ("serve.pool.free_private", "repro.serve.pool", "PagedKVPool",
     "free_private", None),
    ("serve.pool.check_budget", "repro.serve.pool", "PagedKVPool",
     "check_budget", None),
    ("serve.pool.expire_ttl", "repro.serve.pool", "PagedKVPool",
     "expire_ttl", None),
    ("serve.pool.evict_page", "repro.serve.pool", "PagedKVPool",
     "_evict_page", None),
    ("serve.trie.match", "repro.serve.trie", "PrefixTrie", "match", None),
    ("serve.trie.insert", "repro.serve.trie", "PrefixTrie", "insert", None),
    ("serve.trie.remove", "repro.serve.trie", "PrefixTrie", "remove", None),
    ("serve.scheduler.submit", "repro.serve.scheduler",
     "ContinuousBatchingScheduler", "submit", _request_arg),
    ("serve.scheduler.peek_waiting", "repro.serve.scheduler",
     "ContinuousBatchingScheduler", "peek_waiting", None),
    ("serve.scheduler.pick_victim", "repro.serve.scheduler",
     "ContinuousBatchingScheduler", "pick_victim", None),
    ("serve.scheduler.activate", "repro.serve.scheduler",
     "ContinuousBatchingScheduler", "activate", _activate),
    ("serve.scheduler.promote", "repro.serve.scheduler",
     "ContinuousBatchingScheduler", "promote", _request_arg),
    ("serve.scheduler.preempt", "repro.serve.scheduler",
     "ContinuousBatchingScheduler", "preempt", _request_arg),
    ("serve.scheduler.finish", "repro.serve.scheduler",
     "ContinuousBatchingScheduler", "finish", _request_arg),
    ("serve.scheduler.shed", "repro.serve.scheduler",
     "ContinuousBatchingScheduler", "shed", _request_arg),
    ("serve.engine.step", "repro.serve.engine", "ServingEngine",
     "step", None),
    ("serve.engine.submit", "repro.serve.engine", "ServingEngine",
     "submit", _request_result),
    ("serve.engine.report", "repro.serve.engine", "ServingEngine",
     "report", None),
    ("serve.frontend.submit", "repro.serve.frontend", "AsyncServingEngine",
     "submit", _frontend_submit),
    ("serve.session.submit_turn", "repro.serve.session", "Session",
     "submit_turn", _submit_turn),
)


class Tracer:
    """Install span wrappers, collect rows, aggregate self times."""

    def __init__(self, clock, sim_clock=None):
        self.clock = clock
        #: The replay's virtual clock, for the simulated-wait samples the
        #: hooks take (queue wait at admission, open-loop submit lag).
        self.sim_clock = sim_clock
        self.rows: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.kv_owner: dict[int, str] = {}
        self.queue_waits: list[float] = []
        self.submit_lags: list[float] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Install / remove.
    # ------------------------------------------------------------------
    def _wrap(self, name, fn, hook):
        rows, stack, clock = self.rows, self._stack, self.clock

        def span(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            stack.append(len(rows))
            rows.append(row)
            row[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
            if hook is not None:
                hook(self, row, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for name, module_path, owner_name, attr, hook in TARGETS:
            module = importlib.import_module(module_path)
            if owner_name is not None:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            # ``from .codec import plan_encoding`` binds the function
            # object in the importer's namespace, so the defining module
            # alone would miss those call sites.
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, inclusive ``total_s``, ``self_s``
        (inclusive minus direct children) and summed ``units``."""
        rows = self.rows
        child_s = [0.0] * len(rows)
        for row in rows:
            if row[PARENT] >= 0:
                child_s[row[PARENT]] += row[END] - row[START]
        out: dict[str, dict] = {}
        for index, row in enumerate(rows):
            entry = out.get(row[NAME])
            if entry is None:
                entry = out[row[NAME]] = {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0,
                }
            duration = row[END] - row[START]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_s[index]
            entry["units"] += row[UNITS]
        return out

    def durations(self, name: str) -> list[float]:
        """Inclusive seconds of every span called ``name``, in call order."""
        return [r[END] - r[START] for r in self.rows if r[NAME] == name]

    def write_jsonl(self, path, extra_rows=()) -> None:
        """One JSON object per span; ``extra_rows`` (the engine's own
        phase spans) are appended with ``parent`` null."""
        path.parent.mkdir(parents=True, exist_ok=True)
        owner = self.kv_owner
        with open(path, "w", encoding="utf-8") as handle:
            for index, row in enumerate(self.rows):
                request = row[REQUEST]
                if isinstance(request, int):
                    request = owner.get(request)
                handle.write(json.dumps({
                    "id": index,
                    "name": row[NAME],
                    "start": row[START],
                    "end": row[END],
                    "parent": row[PARENT] if row[PARENT] >= 0 else None,
                    "request": request,
                    "units": row[UNITS],
                }))
                handle.write("\n")
            for extra in extra_rows:
                handle.write(json.dumps(extra))
                handle.write("\n")


def phase_totals(recorder) -> dict[str, float]:
    """Wall seconds per engine step phase from a
    ``TraceRecorder(wall_clock)`` handed to the engine as ``recorder=``."""
    totals: dict[str, float] = defaultdict(float)
    for event in recorder.events:
        if event.kind == "span" and event.cat == "phase":
            totals[event.name] += event.dur
    return totals
