"""Step clock and layer tracer for the stlid benchmark.

Both observe the package from outside. The clock wraps the generator that
yields one ``StepRecord`` per step and stamps each record as the caller
receives it. The tracer swaps the public names the pipeline calls for timing
wrappers and keeps spans in memory as ``(layer, seq, start, end)``, where
``seq`` is the index of the step record being produced when the span began;
that step is the span's parent.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.spatial

from stlid import data, pipeline

now = time.perf_counter

# Layers timed inside the pipeline's step, and the first column (steps after
# the dataset's first) at which each is computable.
STEP_LAYERS = {
    "lid.knn_build": 1,
    "lid.knn_query": 1,
    "lid.s_lid": 1,
    "fusion.fuse": 2,
    "lid.t_lid": 3,
    "detection.st_lid": 3,
    "detection.alarm": 3,
}
# Layers that run in the parent process whatever the parallelism degree.
PARENT_LAYERS = ("detection.st_lid", "detection.alarm")


class FirstRecord(Exception):
    """Raised by a probing clock as soon as the first step record arrives."""


@dataclass
class Step:
    asked: float  # caller asked the generator for the next record
    arrived: float  # the record reached the caller
    step: int
    s_invalid: int
    fused_invalid: int
    t_invalid: int


def _invalid(fld) -> int:
    return 0 if fld is None else int(fld.valid.size - np.count_nonzero(fld.valid))


class StepClock:
    """Stamps every StepRecord that ``pipeline.iter_run`` yields to its caller.

    With ``probe=True`` it raises FirstRecord at the first record, so a run
    can be cut short after its set-up.
    """

    def __init__(self, probe: bool = False):
        self.probe = probe
        self.steps: list[Step] = []

    def _iterate(self, records):
        try:
            while True:
                asked = now()
                try:
                    rec = next(records)
                except StopIteration:
                    return
                arrived = now()
                self.steps.append(
                    Step(asked, arrived, rec.step, _invalid(rec.s), _invalid(rec.fused),
                         _invalid(rec.t))
                )
                if self.probe:
                    raise FirstRecord
                yield rec
        finally:
            records.close()  # shuts the worker pool down before returning

    @contextmanager
    def installed(self):
        real = pipeline.iter_run
        pipeline.iter_run = lambda *a, **kw: self._iterate(real(*a, **kw))
        try:
            yield self
        finally:
            pipeline.iter_run = real


class Tracer:
    """Timing wrappers around the names the pipeline and its caller use.

    Installing fails with AttributeError when a wrapped name no longer
    exists, so a rename cannot silently read as 0 ms.
    """

    def __init__(self, clock: StepClock):
        self.steps = clock.steps
        self.spans: list[tuple[str, int, float, float]] = []
        self.t_lid_cells = 0
        self.ckpt_bytes = 0

    def _span(self, layer, t0):
        self.spans.append((layer, len(self.steps), t0, now()))

    def _wrap(self, layer, fn, count=None):
        def timed(*args, **kwargs):
            t0 = now()
            out = fn(*args, **kwargs)
            self._span(layer, t0)
            if count is not None:
                count(args)
            return out

        return timed

    def _count_cells(self, args):
        points, history = np.shape(args[0])
        self.t_lid_cells += points * history

    def _count_bytes(self, args):
        self.ckpt_bytes += os.path.getsize(args[0])

    @contextmanager
    def installed(self):
        targets = [
            (pipeline, "lid_rows", "lid.s_lid", None),
            (pipeline, "t_lid_rows", "lid.t_lid", self._count_cells),
            (pipeline, "fuse_rows", "fusion.fuse", None),
            (pipeline, "st_lid_field", "detection.st_lid", None),
            (pipeline, "update_detection", "detection.alarm", None),
            (pipeline, "save_checkpoint", "pipeline.ckpt_save", self._count_bytes),
            (pipeline, "load_checkpoint", "pipeline.ckpt_load", None),
            (data, "load_dataset", "data.load", None),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _, _ in targets]
        real_tree = scipy.spatial.cKDTree
        tracer = self

        class TracedTree(real_tree):
            def __init__(self, *args, **kwargs):
                t0 = now()
                super().__init__(*args, **kwargs)
                tracer._span("lid.knn_build", t0)

            def query(self, *args, **kwargs):
                t0 = now()
                out = super().query(*args, **kwargs)
                tracer._span("lid.knn_query", t0)
                return out

        try:
            for (mod, name, layer, count), (_, _, fn) in zip(targets, saved):
                setattr(mod, name, self._wrap(layer, fn, count))
            scipy.spatial.cKDTree = TracedTree
            yield self
        finally:
            scipy.spatial.cKDTree = real_tree
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    # -- analysis ---------------------------------------------------------

    def per_step(self, layer) -> np.ndarray:
        """Time in ``layer`` per step record, seconds (0 where it did not run)."""
        out = np.zeros(len(self.steps) + 1)  # last slot: after the final record
        for name, seq, t0, t1 in self.spans:
            if name == layer:
                out[seq] += t1 - t0
        return out[:-1]

    def total(self, layer) -> float:
        return sum(t1 - t0 for name, _, t0, t1 in self.spans if name == layer)

    def count(self, layer) -> int:
        return sum(1 for name, *_ in self.spans if name == layer)

    def first_start(self, layer) -> dict[int, float]:
        """Start of the first ``layer`` span within each step record."""
        out = {}
        for name, seq, t0, _ in self.spans:
            if name == layer and seq not in out:
                out[seq] = t0
        return out

    def missing(self, start_step: int, parallel: int, after_each=(), once=()) -> list[str]:
        """Wrapped layers that recorded no span where they should have.

        Pipeline layers need a span on every step record where they are
        computable; at ``parallel > 1`` only the parent-process layers are
        visible. ``after_each`` layers are the caller's work after every
        record, ``once`` layers run once per unit.
        """
        layers = STEP_LAYERS if parallel == 1 else {k: STEP_LAYERS[k] for k in PARENT_LAYERS}
        seen = {(name, seq) for name, seq, _, _ in self.spans}
        problems = []
        for layer, first_col in layers.items():
            gaps = [
                s.step for seq, s in enumerate(self.steps)
                if s.step - start_step >= first_col and (layer, seq) not in seen
            ]
            if gaps:
                problems.append(f"{layer}: no span at {len(gaps)} step(s), first {gaps[0]}")
        for layer in after_each:
            gaps = [s.step for seq, s in enumerate(self.steps) if (layer, seq + 1) not in seen]
            if gaps:
                problems.append(f"{layer}: no span after {len(gaps)} step(s), first {gaps[0]}")
        problems += [f"{layer}: no span" for layer in once if self.count(layer) == 0]
        return problems
