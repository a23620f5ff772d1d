"""Durable campaign journal: crash-safe sidecar for a running campaign.

A one-hour campaign that dies at minute 55 — manager crash, node failure,
queue eviction — loses everything under the CSV-only persistence model: the
history CSV is written once at the end, and even if it were streamed, the
optimizer's RNG cursor, the surrogate's fitted state and the evaluator's
in-flight evaluations are not in it.  The journal fixes that without touching
the CSV interchange format: each journaled campaign owns a sidecar directory
holding

* **append-only binary column files** mirroring the
  :class:`~repro.core.history.SearchHistory` buffers — one little-endian
  ``float64``/``int64`` file per metadata column, one per parameter
  (categorical/ordinal values are stored as their domain index), plus one
  file of ``(submitted, completed)`` busy-interval pairs;
* **``meta.json``** — the immutable campaign fingerprint (space layout, seed,
  worker count, budgets), written once and atomically at creation;
* **``checkpoint.json``** — the small mutable record, atomically replaced at
  every checkpoint *after* the data files are fsynced: row/interval counts,
  the optimizer RNG state, the evaluator state, the surrogate *fit schedule*
  (the history row count at every fit, plus the surrogate RNG state captured
  just before the most recent fit) and the prior-refresh schedule.

Recovery (:meth:`repro.core.search.CampaignExecution.resume`) never replays
evaluations: the history rows are read back from the column files (truncated
to the checkpointed counts, which discards any torn tail from a crash
mid-append), the optimizer re-ingests them along the recorded fit boundaries
— partial-fit surrogates (GP) replay every fit event so their incremental
factors take the same growth path, from-scratch surrogates (RF) replay only
the final fit after restoring the pre-fit RNG state — prior refreshes are
re-trained against the same truncated history prefixes they originally saw,
and the evaluator reloads its pending evaluations with their already-decided
runtimes.  The resumed campaign is bit-identical to one that never crashed.

The **read side** is :class:`JournalReader`: a zero-copy, memory-mapped view
of a journaled campaign at its checkpoint watermark.  Each per-column append
file is ``np.memmap``-ed up to the committed row count — bytes past the
watermark (a live writer's uncheckpointed appends, or a torn tail left by a
crash) are simply never mapped, so one writer and any number of reader
processes can share a journal directory without locking and without
rewriting anything.  :func:`open_journal_reader` serves readers through an
LRU-bounded cache keyed by the checkpoint record's identity, so a cold
analysis sweep over thousands of stored campaigns neither re-reads column
data nor accumulates an unbounded number of live mappings
(:func:`set_journal_cache_limit` / :func:`clear_journal_cache` mirror the
parsed-CSV cache controls in :mod:`repro.analysis.csvio`).
"""

from __future__ import annotations

import json
import mmap
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.history import Evaluation, SearchHistory
from repro.core.ioutil import atomic_write_text, fsync_file
from repro.core.objective import Objective
from repro.core.space import IntegerParameter, RealParameter, SearchSpace

__all__ = [
    "CampaignJournal",
    "JournalError",
    "JournalReader",
    "open_journal_reader",
    "clear_journal_cache",
    "set_journal_cache_limit",
]

#: Format 2 checkpoints the worker-pool client's ``state_dict``; format 1
#: held the retired private evaluator's, which no longer loads.
FORMAT_VERSION = 2
META_NAME = "meta.json"
CHECKPOINT_NAME = "checkpoint.json"

#: Metadata columns journaled for every history row, in file order.
_META_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("objective", "<f8"),
    ("runtime", "<f8"),
    ("submitted", "<f8"),
    ("completed", "<f8"),
    ("worker", "<i8"),
    ("eval_id", "<i8"),
)


class JournalError(RuntimeError):
    """A campaign journal is missing, malformed, or does not match the search."""


def _check_format(meta: Dict) -> None:
    if meta.get("format") != FORMAT_VERSION:
        raise JournalError(
            f"unsupported journal format {meta.get('format')!r}: this version "
            f"reads format {FORMAT_VERSION} only"
        )


def _json_default(value: Any):
    """Encode the NumPy scalars that leak into evaluator state and configs."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON-serialisable: {value!r} ({type(value).__name__})")


def _dump_json(payload: Dict) -> str:
    # allow_nan keeps NaN/Infinity round-tripping (runtimes of failed and
    # hung evaluations); repr-based float formatting is exact for float64.
    return json.dumps(payload, default=_json_default, allow_nan=True)


class _ParamCodec:
    """Binary codec for one parameter's value column.

    Real parameters store their values as ``float64`` (exact round trip);
    integer parameters as ``int64``; categorical and ordinal parameters as
    the ``int64`` index into their declared domain, so the decoded value is
    the *identical* Python object the space defines (bools stay bools,
    strings stay strings).
    """

    def __init__(self, param):
        self.param = param
        self.name = param.name
        if isinstance(param, RealParameter):
            self.dtype = "<f8"
        elif isinstance(param, IntegerParameter):
            self.dtype = "<i8"
        elif getattr(param, "_domain", None) is not None:
            self.dtype = "<i8"
        else:
            raise JournalError(
                f"parameter {param.name!r} of type {type(param).__name__} "
                "has no journal codec"
            )

    def encode(self, values: Sequence) -> np.ndarray:
        param = self.param
        if isinstance(param, RealParameter):
            return np.asarray([float(v) for v in values], dtype="<f8")
        if isinstance(param, IntegerParameter):
            return np.asarray([int(v) for v in values], dtype="<i8")
        return np.asarray([param.index_of(v) for v in values], dtype="<i8")

    def decode(self, column: np.ndarray) -> List:
        param = self.param
        # tolist() converts the whole column to native Python scalars in one
        # C pass — element-wise iteration over a memory-mapped column would
        # pay one buffer access per value instead.
        values = column.tolist()
        if isinstance(param, (RealParameter, IntegerParameter)):
            return values
        domain = param._domain
        return [domain[v] for v in values]

    def decode_element(self, value):
        param = self.param
        if isinstance(param, RealParameter):
            return float(value)
        if isinstance(param, IntegerParameter):
            return int(value)
        return param._domain[int(value)]


def _space_fingerprint(space: SearchSpace) -> List[List[str]]:
    return [[p.name, type(p).__name__] for p in space.parameters]


class CampaignJournal:
    """The writer side of one campaign's durable sidecar directory.

    Use :meth:`create` for a fresh campaign (existing journal files in the
    directory are truncated) and :meth:`attach` when resuming — attach rolls
    the data files back to the last checkpoint's counts, discarding any torn
    post-crash tail, and continues appending from there.

    Parameters
    ----------
    directory:
        The sidecar directory (created if missing).
    space:
        The campaign's search space (defines the column files).
    fsync:
        Whether to fsync the data files before each checkpoint record is
        replaced (default).  Disabling trades crash durability for speed —
        the journal stays *consistent* (the checkpoint still only references
        rows it believes are on disk) but a power loss may roll further back.
    checkpoint_interval:
        Checkpoint every this-many manager ticks (1 = every tick).  Ticks
        between checkpoints are lost on a crash and transparently re-executed
        on resume — the replay is deterministic, so the result is unchanged.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        space: SearchSpace,
        fsync: bool = True,
        checkpoint_interval: int = 1,
    ):
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.directory = Path(directory)
        self.space = space
        self.fsync = bool(fsync)
        self.checkpoint_interval = int(checkpoint_interval)
        self._codecs = [_ParamCodec(p) for p in space.parameters]
        self._handles: Dict[str, object] = {}
        self.num_rows = 0
        self.num_intervals = 0
        self._fit_rows: List[int] = []
        self._pre_fit_rng: Optional[Dict] = None
        self._refresh_rows: List[int] = []

    # ------------------------------------------------------------ file layout
    def _meta_path(self) -> Path:
        return self.directory / META_NAME

    def _checkpoint_path(self) -> Path:
        return self.directory / CHECKPOINT_NAME

    def _data_files(self) -> List[Tuple[str, str]]:
        """``(filename, dtype)`` of every data file, in a fixed order."""
        files = [(f"m_{name}.bin", dtype) for name, dtype in _META_COLUMNS]
        files.extend(
            (f"p{i}.bin", codec.dtype) for i, codec in enumerate(self._codecs)
        )
        files.append(("intervals.bin", "<f8"))
        return files

    # ------------------------------------------------------------ construction
    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        space: SearchSpace,
        fsync: bool = True,
        checkpoint_interval: int = 1,
    ) -> "CampaignJournal":
        """Open a fresh journal, truncating any previous files in the way."""
        journal = cls(
            directory, space, fsync=fsync, checkpoint_interval=checkpoint_interval
        )
        journal.directory.mkdir(parents=True, exist_ok=True)
        checkpoint = journal._checkpoint_path()
        if checkpoint.exists():
            checkpoint.unlink()
        for name, _ in journal._data_files():
            (journal.directory / name).write_bytes(b"")
        journal._open_handles()
        return journal

    @classmethod
    def attach(
        cls,
        directory: Union[str, Path],
        space: SearchSpace,
        fsync: bool = True,
        checkpoint_interval: int = 1,
    ) -> "CampaignJournal":
        """Reopen a journal at its last checkpoint (for a resumed campaign).

        Data files are truncated to the checkpointed counts first: appends
        that happened after the final checkpoint (including a torn partial
        write from the crash itself) are rolled back, so the files and the
        checkpoint record always agree.
        """
        journal = cls(
            directory, space, fsync=fsync, checkpoint_interval=checkpoint_interval
        )
        checkpoint = journal._read_checkpoint()
        if checkpoint is None:
            raise JournalError(f"no checkpoint to attach to in {journal.directory}")
        journal.num_rows = int(checkpoint["num_rows"])
        journal.num_intervals = int(checkpoint["num_intervals"])
        journal._fit_rows = [int(r) for r in checkpoint["fit_rows"]]
        journal._pre_fit_rng = checkpoint.get("pre_fit_rng")
        journal._refresh_rows = [int(r) for r in checkpoint["refresh_rows"]]
        try:
            for name, dtype in journal._data_files():
                path = journal.directory / name
                count = journal.num_intervals * 2 if name == "intervals.bin" else journal.num_rows
                expected = count * np.dtype(dtype).itemsize
                size = path.stat().st_size if path.exists() else -1
                if size < expected:
                    raise JournalError(
                        f"journal data file {name} holds {size} bytes, "
                        f"checkpoint requires {expected}"
                    )
                if size > expected:
                    with open(path, "r+b") as handle:
                        handle.truncate(expected)
            journal._open_handles()
        except BaseException:
            # A half-done attach (missing/short data file, truncate or open
            # failure) must not leak whatever handles were already opened.
            journal.close()
            raise
        return journal

    def _open_handles(self) -> None:
        try:
            for name, _ in self._data_files():
                self._handles[name] = open(self.directory / name, "ab")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the append handles (idempotent; the journal can re-attach).

        Every handle is closed even when one of them raises — the first
        error propagates after the sweep — and a second ``close()`` is a
        no-op, so cleanup paths (failed attach, registry eviction, ``with``
        blocks in callers) can call it unconditionally.
        """
        handles = list(self._handles.values())
        self._handles.clear()
        first_error: Optional[BaseException] = None
        for handle in handles:
            try:
                handle.close()
            except BaseException as error:  # pragma: no cover - OS-level rarity
                if first_error is None:
                    first_error = error
        if first_error is not None:  # pragma: no cover - OS-level rarity
            raise first_error

    # ------------------------------------------------------------------- meta
    def write_meta(self, extra: Dict) -> None:
        """Write the immutable campaign fingerprint (once, atomically)."""
        meta = {
            "format": FORMAT_VERSION,
            "space": _space_fingerprint(self.space),
        }
        meta.update(extra)
        atomic_write_text(self._meta_path(), _dump_json(meta))

    @staticmethod
    def exists(directory: Union[str, Path]) -> bool:
        """Whether ``directory`` already holds a campaign journal.

        The meta record is the journal's birth certificate (written first,
        atomically), so its presence is the create-or-attach pivot used by
        the campaign registry and ``CBOSearch.start_or_resume``.
        """
        return (Path(directory) / META_NAME).exists()

    @staticmethod
    def read_meta(directory: Union[str, Path]) -> Dict:
        path = Path(directory) / META_NAME
        if not path.exists():
            raise JournalError(f"no campaign journal at {directory} ({META_NAME} missing)")
        return json.loads(path.read_text())

    def _read_checkpoint(self) -> Optional[Dict]:
        path = self._checkpoint_path()
        if not path.exists():
            return None
        return json.loads(path.read_text())

    @staticmethod
    def read_checkpoint(directory: Union[str, Path]) -> Optional[Dict]:
        """The last committed checkpoint record (None before the first)."""
        path = Path(directory) / CHECKPOINT_NAME
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # ---------------------------------------------------------------- appends
    def append_rows(self, history: SearchHistory) -> None:
        """Append history rows past the journal's current row count."""
        stop = len(history)
        start = self.num_rows
        if stop <= start:
            return
        if history.has_incomplete_rows:
            raise JournalError("cannot journal a history with incomplete rows")
        meta, params = history.column_block(start, stop)
        for name, dtype in _META_COLUMNS:
            self._handles[f"m_{name}.bin"].write(
                np.ascontiguousarray(meta[name], dtype=dtype).tobytes()
            )
        for i, codec in enumerate(self._codecs):
            self._handles[f"p{i}.bin"].write(codec.encode(params[codec.name]).tobytes())
        self.num_rows = stop

    def append_intervals(self, intervals: Sequence[Tuple[float, float]]) -> None:
        """Append busy intervals past the journal's current interval count."""
        start = self.num_intervals
        if len(intervals) <= start:
            return
        block = np.asarray(intervals[start:], dtype="<f8")
        self._handles["intervals.bin"].write(np.ascontiguousarray(block).tobytes())
        self.num_intervals = len(intervals)

    # ------------------------------------------------------------------ events
    def note_fit(self, rows: int, surrogate_rng_state: Optional[Dict]) -> None:
        """Record a surrogate fit over the first ``rows`` history rows.

        ``surrogate_rng_state`` is the surrogate RNG's state captured *before*
        the fit runs (None for RNG-free surrogates); only the most recent one
        is retained — it is all a from-scratch surrogate needs to replay its
        final fit.
        """
        self._fit_rows.append(int(rows))
        self._pre_fit_rng = surrogate_rng_state

    def note_prior_refresh(self, rows: int) -> None:
        """Record a prior refresh trained on the first ``rows`` history rows."""
        self._refresh_rows.append(int(rows))

    # -------------------------------------------------------------- checkpoint
    def checkpoint(self, payload: Dict) -> None:
        """Commit everything appended so far plus the caller's state snapshot.

        The data handles are fsynced first (unless ``fsync=False``), then the
        checkpoint record referencing them is atomically replaced — a reader
        therefore never observes a checkpoint that points past the durable
        data.
        """
        if self.fsync:
            for handle in self._handles.values():
                fsync_file(handle)
        else:
            for handle in self._handles.values():
                handle.flush()
        record = {
            "format": FORMAT_VERSION,
            "num_rows": self.num_rows,
            "num_intervals": self.num_intervals,
            "fit_rows": self._fit_rows,
            "pre_fit_rng": self._pre_fit_rng,
            "refresh_rows": self._refresh_rows,
        }
        record.update(payload)
        atomic_write_text(self._checkpoint_path(), _dump_json(record))

    # ---------------------------------------------------------------- reading
    @classmethod
    def read_data(
        cls,
        directory: Union[str, Path],
        space: SearchSpace,
        checkpoint: Dict,
        objective=None,
    ) -> Tuple[SearchHistory, List[Tuple[float, float]]]:
        """Reconstruct the history and busy intervals a checkpoint references.

        Only the checkpointed prefix of each column file is read — bytes past
        it (appends the crash tore or never committed) are ignored.
        """
        journal = cls(directory, space)
        n = int(checkpoint["num_rows"])
        columns: Dict[str, np.ndarray] = {}
        for name, dtype in _META_COLUMNS:
            columns[name] = journal._read_column(f"m_{name}.bin", dtype, n)
        values = [
            codec.decode(journal._read_column(f"p{i}.bin", codec.dtype, n))
            for i, codec in enumerate(journal._codecs)
        ]
        history = SearchHistory(space, objective=objective)
        names = [codec.name for codec in journal._codecs]
        for i in range(n):
            history.append(
                Evaluation(
                    configuration={
                        name: column[i] for name, column in zip(names, values)
                    },
                    objective=float(columns["objective"][i]),
                    runtime=float(columns["runtime"][i]),
                    submitted=float(columns["submitted"][i]),
                    completed=float(columns["completed"][i]),
                    worker=int(columns["worker"][i]),
                    eval_id=int(columns["eval_id"][i]),
                )
            )
        pairs = journal._read_column(
            "intervals.bin", "<f8", int(checkpoint["num_intervals"]) * 2
        )
        intervals = [
            (float(pairs[2 * i]), float(pairs[2 * i + 1]))
            for i in range(int(checkpoint["num_intervals"]))
        ]
        return history, intervals

    def _read_column(self, name: str, dtype: str, count: int) -> np.ndarray:
        path = self.directory / name
        data = path.read_bytes() if path.exists() else b""
        needed = count * np.dtype(dtype).itemsize
        if len(data) < needed:
            raise JournalError(
                f"journal data file {name} holds {len(data)} bytes, "
                f"checkpoint requires {needed}"
            )
        return np.frombuffer(data[:needed], dtype=dtype)

    # -------------------------------------------------------------- validation
    @staticmethod
    def validate_meta(meta: Dict, space: SearchSpace, **expected) -> None:
        """Check a journal's fingerprint against the resuming search.

        ``expected`` holds scalar fields (seed, num_workers, surrogate, ...)
        that must match what the meta recorded; mismatches raise
        :class:`JournalError` — resuming under a different configuration
        would silently diverge from the original run instead.
        """
        _check_format(meta)
        fingerprint = _space_fingerprint(space)
        if meta.get("space") != fingerprint:
            raise JournalError(
                "journal space fingerprint does not match the resuming search"
            )
        for key, value in expected.items():
            if meta.get(key) != value:
                raise JournalError(
                    f"journal {key}={meta.get(key)!r} does not match the "
                    f"resuming search ({value!r})"
                )


def _object_column(values: Sequence) -> np.ndarray:
    """Pack decoded parameter values into the object-dtype column layout
    :class:`~repro.core.history.SearchHistory` stores natively."""
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


class JournalReader:
    """Zero-copy, read-only view of a journaled campaign at its watermark.

    The reader loads the journal's ``meta.json`` (validating format and
    space fingerprint) and the last committed ``checkpoint.json``, then
    memory-maps each column file up to the checkpoint's row count — the
    *watermark*.  Bytes past the watermark are never mapped, so a torn tail
    from a crash, or appends a live writer has not checkpointed yet, are
    invisible: a reader attached mid-run always observes exactly the
    checkpointed prefix, bit-identical to the writer's in-memory history at
    that point.  Nothing is rewritten, so N reader processes and one writer
    coexist on the same directory without locking.

    :meth:`history` returns a read-only
    :class:`~repro.core.history.SearchHistory` whose metadata columns *are*
    the mapped files (no copy, no parse); parameter columns decode lazily on
    first access, so metric sweeps that only touch objectives/runtimes/
    timestamps never pay for configuration decoding.

    A journal whose checkpoint has not been written yet (created but never
    committed) reads as empty.  Use :func:`open_journal_reader` for the
    cached entry point.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        space: SearchSpace,
        objective: Optional[Objective] = None,
    ):
        self.directory = Path(directory)
        self.space = space
        self.objective = objective
        self.meta = CampaignJournal.read_meta(self.directory)
        CampaignJournal.validate_meta(self.meta, space)
        self.checkpoint = CampaignJournal.read_checkpoint(self.directory)
        #: Committed-row watermark: rows past it are never mapped.
        self.num_rows = 0 if self.checkpoint is None else int(self.checkpoint["num_rows"])
        self.num_intervals = (
            0 if self.checkpoint is None else int(self.checkpoint["num_intervals"])
        )
        self._codecs = [_ParamCodec(p) for p in space.parameters]
        self._history: Optional[SearchHistory] = None
        self._intervals: Optional[List[Tuple[float, float]]] = None
        self._raw_params: Dict[int, np.ndarray] = {}
        self._closed = False
        #: Reference count: the creator holds one reference; :meth:`retain`
        #: adds holders, :meth:`close` releases them.  The reader really
        #: closes only when the last holder releases, which makes cache
        #: eviction safe while another thread still uses the reader.
        self._refs = 1
        self._refs_lock = threading.Lock()

    # ---------------------------------------------------------------- mapping
    def _map_column(self, name: str, dtype: str, count: int) -> np.ndarray:
        """Memory-map the first ``count`` elements of one column file."""
        if count == 0:
            return np.empty(0, dtype=dtype)
        path = self.directory / name
        needed = count * np.dtype(dtype).itemsize
        try:
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size < needed:
                    raise JournalError(
                        f"journal data file {name} holds {size} bytes, "
                        f"checkpoint requires {needed}"
                    )
                # Read-only shared mapping of just the committed prefix.  The
                # descriptor closes immediately after (the mapping survives
                # it), so a cached reader costs address space, not
                # descriptors.  ``np.memmap`` would do the same but
                # canonicalises the path on every call — a measurable cost
                # when sweeping thousands of column files.
                mapped = mmap.mmap(handle.fileno(), needed, access=mmap.ACCESS_READ)
        except FileNotFoundError:
            raise JournalError(
                f"journal data file {name} holds -1 bytes, "
                f"checkpoint requires {needed}"
            ) from None
        return np.frombuffer(mapped, dtype=np.dtype(dtype), count=count)

    # ------------------------------------------------------------------ views
    def history(self) -> SearchHistory:
        """The checkpointed history prefix as a read-only zero-copy view.

        The returned history is shared by every caller of the same reader
        (it is immutable); ``history.copy()`` thaws it into an independent
        mutable history when a caller needs to extend it.
        """
        if self._closed:
            raise JournalError(f"journal reader for {self.directory} is closed")
        if self._history is None:
            n = self.num_rows
            meta_columns = {
                name: self._map_column(f"m_{name}.bin", dtype, n)
                for name, dtype in _META_COLUMNS
            }
            loaders: Dict[str, Callable[[], np.ndarray]] = {
                codec.name: (
                    lambda i=i, codec=codec: _object_column(
                        codec.decode(self._raw_param(i))
                    )
                )
                for i, codec in enumerate(self._codecs)
            }
            element_loaders = {
                codec.name: (
                    lambda row, i=i, codec=codec: codec.decode_element(
                        self._raw_param(i)[row]
                    )
                )
                for i, codec in enumerate(self._codecs)
            }
            self._history = SearchHistory.from_columns(
                self.space,
                meta_columns,
                loaders,
                objective=self.objective,
                param_element_loaders=element_loaders,
            )
        return self._history

    def _raw_param(self, i: int) -> np.ndarray:
        """The (cached) typed mapping of parameter column ``i``.

        Shared by the full-column and per-element loaders so a ``best()``
        followed by a full decode maps the file once.
        """
        column = self._raw_params.get(i)
        if column is None:
            codec = self._codecs[i]
            column = self._raw_params[i] = self._map_column(
                f"p{i}.bin", codec.dtype, self.num_rows
            )
        return column

    def intervals(self) -> List[Tuple[float, float]]:
        """The checkpointed ``(submitted, completed)`` busy intervals."""
        if self._closed:
            raise JournalError(f"journal reader for {self.directory} is closed")
        if self._intervals is None:
            pairs = self._map_column("intervals.bin", "<f8", self.num_intervals * 2)
            flat = pairs.tolist()
            self._intervals = list(zip(flat[0::2], flat[1::2]))
        return list(self._intervals)

    def retain(self) -> "JournalReader":
        """Register an additional holder of this reader (thread-safe).

        Every ``retain()`` must be balanced by a :meth:`close`; the reader
        only really closes on the last release.  Used by
        :func:`open_journal_reader` callers that keep a cached reader beyond
        the current call, so a concurrent cache eviction (which releases the
        cache's own reference) cannot close the mappings under them.
        """
        with self._refs_lock:
            if self._closed:
                raise JournalError(
                    f"journal reader for {self.directory} is closed"
                )
            self._refs += 1
        return self

    def close(self) -> None:
        """Release one reference; the last release drops the mappings.

        Idempotent once closed.  Histories already handed out stay valid —
        they keep their own references, and the pages unmap only when the
        last view dies; closing just stops *this* reader from pinning them
        any longer.
        """
        with self._refs_lock:
            if self._closed:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._closed = True
        self._history = None
        self._intervals = None
        self._raw_params = {}

    # ------------------------------------------------------------------- peek
    @staticmethod
    def peek(directory: Union[str, Path]) -> Dict:
        """Cheap space-free status of a stored campaign (registry/monitoring).

        Maps only the objective and runtime columns — no search space, no
        parameter decoding, no optimizer replay — and returns a JSON-ready
        summary: evaluation count, failure count, best runtime/objective and
        the checkpoint's ``finished`` flag.  This is how the campaign
        registry reports on studies that are journaled on disk but not live
        in the process.
        """
        directory = Path(directory)
        meta = CampaignJournal.read_meta(directory)
        _check_format(meta)
        checkpoint = CampaignJournal.read_checkpoint(directory)
        payload: Dict[str, Any] = {
            "directory": str(directory),
            "num_evaluations": 0,
            "num_failures": 0,
            "finished": False,
            "best_runtime": None,
            "best_objective": None,
            "max_time": meta.get("max_time"),
            "num_workers": meta.get("num_workers"),
        }
        if checkpoint is None:
            return payload
        n = int(checkpoint["num_rows"])
        payload["num_evaluations"] = n
        payload["finished"] = bool(checkpoint.get("finished", False))
        if n:
            reader = JournalReader.__new__(JournalReader)
            reader.directory = directory
            objectives = reader._map_column("m_objective.bin", "<f8", n)
            finite = np.flatnonzero(np.isfinite(objectives))
            payload["num_failures"] = n - int(finite.size)
            if finite.size:
                # First maximum, matching SearchHistory.best() tie-breaking.
                best = int(finite[np.argmax(objectives[finite])])
                runtimes = reader._map_column("m_runtime.bin", "<f8", n)
                payload["best_objective"] = float(objectives[best])
                payload["best_runtime"] = float(runtimes[best])
        return payload


# --------------------------------------------------------------- reader cache
#: LRU reader cache: (resolved directory, checkpoint mtime_ns, checkpoint
#: size) → [(space, objective, reader), ...] in least-recently-used order
#: (oldest first).  A writer's new checkpoint changes the key, so a cached
#: reader is never stale; the short value list guards against the same
#: journal being read against different spaces/objectives.
_READER_CACHE: "OrderedDict[Tuple[str, int, int], List[Tuple[SearchSpace, Objective, JournalReader]]]" = OrderedDict()

#: Cache bound: beyond this many distinct checkpoints the least-recently-used
#: readers are dropped, so a sweep over thousands of journaled campaigns
#: keeps a bounded number of live mappings instead of one per campaign ever
#: touched.
_READER_CACHE_MAX = 128

#: Guards every mutation of ``_READER_CACHE`` (lookup + insert + LRU
#: reordering + eviction are one critical section).  Re-entrant because
#: eviction runs inside ``open_journal_reader`` which already holds it.
_READER_CACHE_LOCK = threading.RLock()


def clear_journal_cache() -> None:
    """Drop (and close) every cached journal reader (thread-safe)."""
    with _READER_CACHE_LOCK:
        for entries in _READER_CACHE.values():
            for _, _, reader in entries:
                reader.close()
        _READER_CACHE.clear()


def set_journal_cache_limit(max_readers: int) -> int:
    """Set the journal reader cache bound; returns the previous bound.

    Mirrors :func:`repro.analysis.csvio.set_history_cache_limit`: shrinking
    evicts least-recently-used readers immediately, ``0`` disables caching
    (every open maps afresh).
    """
    global _READER_CACHE_MAX
    if max_readers < 0:
        raise ValueError("max_readers must be >= 0")
    with _READER_CACHE_LOCK:
        previous = _READER_CACHE_MAX
        _READER_CACHE_MAX = int(max_readers)
        _evict_reader_cache()
    return previous


def _evict_reader_cache() -> None:
    with _READER_CACHE_LOCK:
        while len(_READER_CACHE) > _READER_CACHE_MAX:
            _, entries = _READER_CACHE.popitem(last=False)
            for _, _, reader in entries:
                reader.close()


def open_journal_reader(
    directory: Union[str, Path],
    space: SearchSpace,
    objective: Optional[Objective] = None,
    retain: bool = False,
) -> JournalReader:
    """Open a :class:`JournalReader` through the LRU-bounded cache.

    The cache key is the checkpoint record's ``(path, mtime, size)``
    identity: re-opening an unchanged campaign returns the already-mapped
    reader (and its shared zero-copy history) instantly, while a journal
    whose writer committed a new checkpoint gets a fresh reader at the new
    watermark — the stale entry for the same directory is dropped.  Hits
    refresh LRU order, so bulk sweeps evict the campaigns they are done
    with, not the ones they are about to revisit.

    Thread-safe: lookup, insertion and eviction run under one lock, and
    eviction only *releases* the cache's reference — it cannot close a
    reader out from under a holder that called :meth:`JournalReader.retain`.
    With ``retain=True`` the returned reader carries an extra reference owned
    by the caller, who must balance it with ``close()``; the default returns
    a borrowed reference valid until the entry is evicted (histories already
    obtained stay valid either way).
    """
    directory = Path(directory)
    checkpoint_path = directory / CHECKPOINT_NAME
    if _READER_CACHE_MAX == 0 or not checkpoint_path.exists():
        return JournalReader(directory, space, objective=objective)
    stat = checkpoint_path.stat()
    resolved = str(directory.resolve())
    key = (resolved, stat.st_mtime_ns, stat.st_size)
    wanted = objective or Objective()
    with _READER_CACHE_LOCK:
        entries = _READER_CACHE.get(key)
        if entries is None:
            for stale in [k for k in _READER_CACHE if k[0] == resolved]:
                for _, _, reader in _READER_CACHE.pop(stale):
                    reader.close()
            entries = _READER_CACHE[key] = []
        else:
            _READER_CACHE.move_to_end(key)
        for cached_space, cached_objective, reader in entries:
            if cached_space == space and cached_objective == wanted:
                return reader.retain() if retain else reader
        reader = JournalReader(directory, space, objective=wanted)
        entries.append((space, wanted, reader))
        _evict_reader_cache()
        return reader.retain() if retain else reader
