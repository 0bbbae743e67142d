"""Command-line front end: generate, detect, monitor, benchmark, validate.

Configuration comes from an optional flat key=value file plus repeated
``--set key=value`` overrides; ``--print-config`` dumps the effective values
so every run is self-documenting, and the dump loads back through
``--config``. The keys, types and defaults are the fields of the config
dataclasses. Exit codes: 0 success, 1 usage error, 2 data error,
3 configuration error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
import types
import typing
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import reduce

from . import pipeline
from .baselines import write_baseline_scores_csv
from .data import (
    SCORES_HEADER,
    check_events,
    check_scores,
    format_rows,
    load_dataset,
    load_ground_truth,
    load_points,
    replacing,
    save_dataset,
    save_ground_truth,
)
from .detection import DetectionConfig
from .errors import ConfigError, DataError, StlidError, require
from .fusion import FusionConfig
from .lid import T_LID_FIRST_COL, LidConfig
from .metrics import METHOD_NAMES, BaselineConfig, benchmark, report_csv, report_table
from .synthetic import CreepScenarioSpec, generate_creep_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONFIG = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunSettings:
    lid: LidConfig = field(default_factory=LidConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    parallel: int = 1
    step_interval_minutes: float = 2.5

    def validate(self):
        for f in fields(self):
            section = getattr(self, f.name)
            if is_dataclass(section):
                section.validate()
        require("parallel", self.parallel, "[1, inf)")
        require("step_interval_minutes", self.step_interval_minutes, "(0, inf)")

    def run_args(self) -> dict:
        """The keyword arguments of a detector run under these settings."""
        return dict(lid_config=self.lid, fusion_config=self.fusion,
                    detection_config=self.detection, parallel=self.parallel)


def _field_types(cls) -> dict:
    """Each field of the dataclass ``cls``, in order, mapped to its annotated type."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _setting_types() -> dict:
    """Every ``RunSettings`` key, in dump order, mapped to its type: the
    config sections give ``section.name`` keys, the other fields their name."""
    keys = {}
    for name, tp in _field_types(RunSettings).items():
        if is_dataclass(tp):
            keys.update((f"{name}.{sub}", t) for sub, t in _field_types(tp).items())
        else:
            keys[name] = tp
    return keys


def _cast(tp, raw: str):
    """``raw`` as the annotated type ``tp``; ValueError when it does not parse.

    ``None`` reads as None where the type allows it; a union takes its first
    member that parses; a tuple is floats split on ``,`` or ``;``.
    """
    kinds = typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
    if raw == "None" and type(None) in kinds:
        return None
    for kind in kinds:
        kind = typing.get_origin(kind) or kind
        try:
            if kind is tuple:
                return tuple(float(x) for x in re.split("[,;]", raw))
            if kind in (int, float, str):
                return kind(raw)
        except ValueError:
            pass
    raise ValueError(raw)


def parse_kv_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {text!r}")
            key, val = text.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def build_settings(file_values: dict | None, overrides: list[str] | None) -> RunSettings:
    settings = RunSettings()
    setting_types = _setting_types()
    merged = dict(file_values or {})
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        merged[key.strip()] = val.strip()
    for key, raw in merged.items():
        if key not in setting_types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            val = _cast(setting_types[key], raw)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
        section, _, name = key.rpartition(".")
        setattr(getattr(settings, section) if section else settings, name, val)
    settings.validate()
    return settings


def format_settings(settings: RunSettings) -> str:
    lines = []
    for key in _setting_types():
        val = reduce(getattr, key.split("."), settings)
        if isinstance(val, tuple):
            val = ";".join(str(v) for v in val)
        lines.append(f"{key}={val}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def load_scenario_spec(path) -> CreepScenarioSpec:
    values = parse_kv_file(path)
    spec_types = _field_types(CreepScenarioSpec)
    kwargs = {}
    for key, raw in values.items():
        if key not in spec_types:
            raise ConfigError(f"{path}: unknown scenario field {key!r}")
        try:
            kwargs[key] = _cast(spec_types[key], raw)
        except ValueError:
            raise ConfigError(f"{path}: bad value for field {key!r}: {raw!r}") from None
    required = {
        f.name for f in fields(CreepScenarioSpec)
        if f.default is MISSING and f.default_factory is MISSING
    }
    missing = required - set(kwargs)
    if missing:
        raise ConfigError(f"{path}: missing scenario fields: {', '.join(sorted(missing))}")
    return CreepScenarioSpec(**kwargs)


def cmd_generate(args) -> int:
    spec = load_scenario_spec(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    dataset, truth = generate_creep_scenario(spec)
    save_dataset(dataset, args.points, args.series)
    if args.truth:
        save_ground_truth(truth, args.truth)
    print(
        f"generated {dataset.num_points} points x {dataset.num_steps} steps "
        f"(seed {spec.seed}) -> {args.points}, {args.series}"
        + (f", {args.truth}" if args.truth else "")
    )
    return EXIT_OK


def _settings(args) -> RunSettings:
    """The checked settings: defaults, then ``--config``, ``--set`` and ``--parallel``."""
    overrides = list(args.set or [])
    if args.parallel is not None:
        overrides.append(f"parallel={args.parallel}")
    return build_settings(parse_kv_file(args.config) if args.config else None, overrides)


def _event_line(ev) -> str:
    return (
        f"EVENT step={ev.detection_step} point={ev.point_id} "
        f"x={ev.location[0]:g} y={ev.location[1]:g} st={ev.value:.4f}"
    )


def _load_inputs(args, settings):
    """The dataset and truth, checked against each other and against
    ``--at-step``; each run command dumps ``--print-config`` after its last check."""
    dataset = load_dataset(
        args.points, args.series, step_interval_minutes=settings.step_interval_minutes
    )
    truth = load_ground_truth(args.truth) if args.truth else None
    if truth is not None:
        truth.validate_against(dataset)
    if getattr(args, "at_step", None) is not None:
        first, last = dataset.start_step + T_LID_FIRST_COL, dataset.last_step  # the st-LID steps
        require("--at-step", args.at_step, f"[{first}, {last}]")
    return dataset, truth


def cmd_detect(args) -> int:
    settings = _settings(args)
    dataset, truth = _load_inputs(args, settings)
    state = pipeline.PipelineState()
    records = pipeline.iter_run(dataset, stop_step=args.at_step, state=state, **settings.run_args())
    if args.print_config:
        print(format_settings(settings))
    # the score dump is written as the steps arrive, and replaces --scores once the run has finished
    with replacing(args.scores) if args.scores else nullcontext() as dump:
        if dump is not None:
            dump.write(",".join(SCORES_HEADER) + "\n")
        for rec in records:
            if dump is not None and rec.st is not None:  # one block of rows per st-LID step
                fields = (rec.s, rec.fused, rec.t, rec.st)
                dump.write(format_rows(rec.step, dataset.ids, *(f.values for f in fields),
                                       *(f.valid for f in fields)))
    if args.events:
        pipeline.write_events_csv(args.events, state.events)
    for ev in state.events:
        print(_event_line(ev))
    leads = pipeline.event_lead_times(state.events, truth, dataset.step_interval_minutes)
    for label, (steps, minutes) in leads.items():
        print(f"lead[{label}] = {steps} steps ({minutes:.1f} min)")
    if not state.events:
        print("no events")
    return EXIT_OK


def cmd_monitor(args) -> int:
    require("--checkpoint-every", args.checkpoint_every, "[1, inf)")
    require("--realtime-factor", args.realtime_factor, "[0, inf)")
    if args.resume and not args.checkpoint:
        raise ConfigError("--resume needs --checkpoint")
    settings = _settings(args)
    dataset, _ = _load_inputs(args, settings)
    state = pipeline.load_checkpoint(args.checkpoint) if args.resume else pipeline.PipelineState()
    records = pipeline.iter_run(dataset, state=state, **settings.run_args())
    if args.print_config:
        print(format_settings(settings))
    if args.resume and state.next_col < dataset.num_steps:  # a step is left
        print(f"resuming at step {dataset.start_step + state.next_col}")

    sleep_s = dataset.step_interval_minutes * 60.0 * args.realtime_factor
    n_since_ckpt = 0
    for rec in records:
        decision = rec.decision
        if decision is None:
            print(f"step={rec.step} (warm-up)")
        else:
            st = "n.a." if decision.value is None else f"{decision.value:.4f}"
            print(f"step={rec.step} argmax={decision.point_id} st={st} hits={decision.hits}")
        if rec.event is not None:
            print(_event_line(rec.event))
        if args.checkpoint:
            n_since_ckpt += 1
            if n_since_ckpt >= args.checkpoint_every:
                n_since_ckpt = 0
                pipeline.save_checkpoint(args.checkpoint, state)
        if sleep_s:
            time.sleep(sleep_s)
    if args.events:
        pipeline.write_events_csv(args.events, state.events)
    print(f"done: {len(state.events)} event(s)")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    if args.max_backscan is not None:
        require("max_backscan", args.max_backscan, "[0, inf)")  # as metrics.benchmark names it
    settings = _settings(args)
    methods = tuple(m.strip() for m in args.methods.split(",")) if args.methods else METHOD_NAMES
    for m in methods:
        if m not in METHOD_NAMES:
            raise _UsageError(
                f"unknown method {m!r}; valid methods: {', '.join(METHOD_NAMES)}"
            )
    if not args.truth:
        raise ConfigError("benchmark needs --truth")
    dataset, truth = _load_inputs(args, settings)
    reports = benchmark(
        dataset,
        truth,
        methods=methods,
        baseline_config=settings.baseline,
        max_backscan=args.max_backscan,
        **settings.run_args(),
    )
    # per-point scores of the comparison methods at the failure step; a
    # method undefined there raises its error again, before any output
    compared = [rep for rep in reports if rep.method != "stlid"]
    undefined = [rep.error for rep in compared if rep.error is not None]
    if args.method_scores and undefined:
        raise undefined[0]
    if args.print_config:  # only now: the run itself can refuse the dataset or the settings
        print(format_settings(settings))
    table = report_table(reports)
    print(table)
    if args.table:
        with open(args.table, "w") as fh:
            fh.write(table + "\n")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report_csv(reports))
    if args.method_scores:
        write_baseline_scores_csv(args.method_scores, [rep.result for rep in compared], dataset)
    return EXIT_OK


def cmd_validate(args) -> int:
    kind, path = args.kind, args.path
    if kind == "points":
        load_points(path)
    elif kind == "dataset":
        if not args.series:
            raise ConfigError("validate dataset needs PATH (points) and --series")
        load_dataset(path, args.series)
    elif kind == "truth":
        load_ground_truth(path)
    elif kind == "scores":
        check_scores(path)
    elif kind == "events":
        check_events(path)
    print(f"{kind} file {path}: OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--points", required=True, help="points CSV (id,x,y)")
    p.add_argument("--series", required=True, help="series CSV (id,t,displacement)")
    p.add_argument("--truth", help="ground-truth CSV (label,xmin,ymin,xmax,ymax,tof)")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--parallel", type=int,
                   help="threads per step (default 1, in-process; output is identical for any value)")
    p.add_argument("--print-config", action="store_true", help="dump effective config")


def build_parser() -> _Parser:
    parser = _Parser(prog="stlid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic scenario")
    g.add_argument("spec", help="scenario spec file (key=value)")
    g.add_argument("--points", required=True)
    g.add_argument("--series", required=True)
    g.add_argument("--truth")
    g.add_argument("--seed", type=int, help="override the spec seed")
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("detect", help="run the detector over a dataset")
    _add_common(d)
    d.add_argument("--at-step", type=int, help="stop after this step")
    d.add_argument("--scores", help="write per-step score dump CSV")
    d.add_argument("--events", help="write event log CSV")
    d.set_defaults(func=cmd_detect)

    m = sub.add_parser("monitor", help="streaming replay with per-step output")
    _add_common(m)
    m.add_argument("--realtime-factor", type=float, default=0.0,
                   help="sleep this fraction of the real step interval per step (0 = fast)")
    m.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    m.add_argument("--checkpoint-every", type=int, default=50)
    m.add_argument("--resume", action="store_true", help="resume from --checkpoint")
    m.add_argument("--events", help="write event log CSV")
    m.set_defaults(func=cmd_monitor)

    b = sub.add_parser("benchmark", help="evaluate methods against ground truth")
    _add_common(b)
    b.add_argument("--methods", help=f"comma list from: {', '.join(METHOD_NAMES)}")
    b.add_argument("--max-backscan", type=int, help="cap the lead-time scan depth")
    b.add_argument("--table", help="write the text table here")
    b.add_argument("--csv", help="write the CSV report here")
    b.add_argument("--method-scores",
                   help="dump per-point method scores at the failure step to this CSV")
    b.set_defaults(func=cmd_benchmark)

    v = sub.add_parser("validate", help="check a file against its documented schema")
    v.add_argument("kind", choices=["points", "dataset", "truth", "scores", "events"])
    v.add_argument("path")
    v.add_argument("--series", help="series CSV when validating a dataset")
    v.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"stlid: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"stlid: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"stlid: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StlidError as exc:
        print(f"stlid: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"stlid: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
