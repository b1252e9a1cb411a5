"""Command-line interface.

Subcommands: generate, partition, train, infer, bench, eval, gain.
Global flags (per subcommand): --config <key=value file>, --seed, --out.
Flag values override config-file values, which override defaults.
Each record prints as one JSON object per line whose first key,
`record`, names its kind; the aligned tables are for humans.

Exit codes: 0 success, 2 bad input or file, 3 configuration error,
4 internal invariant violation.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from ._kernels import backend
from .backbone import BackboneConfig, ScaleModel, init_params, param_shapes
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .cloud import (CloudExtentError, PartitionConfig, build_partitions,
                    gather)
from .config import ConfigError
from .io import CloudFormatError, read_cloud, write_cloud
from .pipeline import (
    PipelineConfig,
    estimate_gain,
    run_pipeline,
    simulate_schedule,
)
from .scene import SceneSpec, generate_scene
from .training import TrainConfig, evaluate, train_scale

# config key -> (config class, field, accessor); an absent key keeps the
# field's default
_CONFIG_FIELDS = {
    "points": (SceneSpec, "num_points", cfgmod.as_int),
    "classes": (SceneSpec, "num_classes", cfgmod.as_int),
    "objects": (SceneSpec, "num_objects", cfgmod.as_int),
    "extents": (SceneSpec, "extents", cfgmod.as_float_list),
    "noise": (SceneSpec, "noise_sigma", cfgmod.as_float),
    "walls": (SceneSpec, "include_walls", cfgmod.as_bool),
    "feature_dim": (BackboneConfig, "feature_dim", cfgmod.as_int),
    "attention_neighbors": (BackboneConfig, "attention_neighbors", cfgmod.as_int),
    "encoder_stages": (BackboneConfig, "encoder_stages", cfgmod.as_int),
    "downsample_factor": (BackboneConfig, "downsample_factor", cfgmod.as_float),
    "interp_neighbors": (BackboneConfig, "interp_neighbors", cfgmod.as_int),
    "k_fuse": (PipelineConfig, "k_fuse", cfgmod.as_int),
    "voxel_sizes": (PartitionConfig, "voxel_sizes", cfgmod.as_float_list),
    "epochs": (TrainConfig, "epochs", cfgmod.as_int),
    "batch_size": (TrainConfig, "batch_size", cfgmod.as_int),
    "learning_rate": (TrainConfig, "learning_rate", cfgmod.as_float),
    "momentum": (TrainConfig, "momentum", cfgmod.as_float),
}
_KNOWN_KEYS = tuple(_CONFIG_FIELDS) + ("scenes", "seed")


def _merge_config(args):
    """defaults < config file < explicit flags, all as strings.

    A flag overrides the config key of the same name; a subcommand
    without that flag leaves the key to the file.
    """
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(cfgmod.parse_config_file(args.config))
        cfgmod.check_known(cfg, _KNOWN_KEYS, source=args.config)
    for key in _KNOWN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = str(value)
    return cfg


def _build(cls, cfg, **fixed):
    """cls(**fixed) plus the fields of cls that cfg sets; a value cls
    rejects is a configuration error."""
    kwargs = {name: read(cfg, key, None)
              for key, (owner, name, read) in _CONFIG_FIELDS.items()
              if owner is cls and key in cfg}
    try:
        return cls(**kwargs, **fixed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _scene_spec(cfg, seed):
    return _build(SceneSpec, cfg, rng_seed=seed)


def _pipeline_config(cfg, num_classes):
    return _build(PipelineConfig, cfg,
                  backbone=_build(BackboneConfig, cfg, num_classes=num_classes))


def _partition_config(cfg):
    return _build(PartitionConfig, cfg, rng_seed=_seed(cfg))


def _seed(cfg):
    seed = cfgmod.as_int(cfg, "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _load_scenes(args, cfg, part_cfg):
    """Labeled (cloud, parts) pairs from --in files or synthetic scenes."""
    seed = _seed(cfg)
    clouds = []
    if getattr(args, "infile", None):
        for path in args.infile.split(","):
            clouds.append(read_cloud(path.strip()))
    else:
        count = cfgmod.as_int(cfg, "scenes", 2)
        if count < 1:
            raise ConfigError(f"scenes must be >= 1, got {count}")
        for i in range(count):
            clouds.append(generate_scene(_scene_spec(cfg, seed + i)))
    if any(c.labels is None for c in clouds):
        raise CloudFormatError("input cloud has no labels")
    classes = {c.num_classes for c in clouds}
    if len(classes) != 1:
        raise CloudFormatError(f"inputs disagree on class count: {sorted(classes)}")
    if min(classes) < 2:
        raise CloudFormatError("input clouds need labels of at least 2 classes")
    return [(c, build_partitions(c, part_cfg)) for c in clouds], classes.pop()


def _require_points(scenes, scale_id):
    """A scale that no input scene has points at is an input error. The
    baseline, scale id 0, runs on scenes of one partition, the union."""
    i = max(scale_id - 1, 0)
    if all(p.sizes[i] == 0 for _, p in scenes):
        where = f"at scale {scale_id}" if scale_id else "for the baseline"
        raise CloudFormatError(
            f"no input has points {where} (voxel size "
            f"{scenes[0][1].voxel_sizes[i]})")


def _model_path(models_dir, scale_id):
    name = "baseline.ckpt" if scale_id == 0 else f"scale_{scale_id}.ckpt"
    return os.path.join(models_dir, name)


def _role(scale_id):
    """The checkpoint extras naming what a scale id's model is trained as."""
    return ({"role": "baseline"} if scale_id == 0 else
            {"role": "scale", "scale_id": str(scale_id)})


def _load_models(models_dir, scale_ids, voxel_sizes, pcfg=None):
    """(models, pcfg) from the checkpoints of the given scale ids.

    Each checkpoint must hold the tensor names and shapes of a fresh
    model of its stored configuration: scales >= 2 fuse unless its k_fuse
    is 0 (scale id 0 is the whole-cloud baseline). All of them, and pcfg
    when given, must share one PipelineConfig; a checkpoint without
    k_fuse has the default one. A checkpoint that records the voxel
    sizes it was trained with must start with the configured
    `voxel_sizes` up to its own scale (all of them for the baseline),
    and one that records its role and scale id must have been trained
    as the id it is loaded as.
    """
    models = []
    for scale_id in scale_ids:
        path = _model_path(models_dir, scale_id)
        params, bcfg, frozen, extras = load_checkpoint(path)
        try:
            stored = PipelineConfig(
                bcfg, int(extras.get("k_fuse", PipelineConfig.k_fuse)))
        except ValueError as exc:
            raise CheckpointFormatError(
                f"{models_dir}: bad k_fuse in the checkpoints: {exc}") from None
        want = param_shapes(bcfg, with_fusion=scale_id > 1 and stored.k_fuse > 0)
        got = {k: v.shape for k, v in params.items()}
        if got != want:
            missing = sorted(want.keys() - got.keys())
            unexpected = sorted(got.keys() - want.keys())
            reshaped = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
            raise CheckpointFormatError(
                f"{path}: tensors do not match the stored configuration "
                f"(missing {missing}, unexpected {unexpected}, wrong shape {reshaped})")
        if pcfg is None:
            pcfg = stored
        elif stored != pcfg:
            raise CheckpointFormatError(
                f"{path}: model configuration {stored} does not match {pcfg}")
        trained_as = {k: extras[k] for k in ("role", "scale_id") if k in extras}
        if any(_role(scale_id).get(k) != v for k, v in trained_as.items()):
            raise CheckpointFormatError(
                f"{path}: trained as {trained_as}, loaded as {_role(scale_id)}")
        recorded = extras.get("voxel_sizes")
        if recorded is not None:
            want = tuple(voxel_sizes[:scale_id or None])
            try:
                trained = tuple(float(v) for v in recorded.split(","))
            except ValueError:
                trained = ()
            if trained[:len(want)] != want:
                raise CheckpointFormatError(
                    f"{path}: trained with voxel sizes {recorded}, configured "
                    f"{','.join(map(repr, voxel_sizes))}")
        try:
            models.append(ScaleModel(params, frozen))
        except ValueError as exc:
            raise CheckpointFormatError(f"{path}: {exc}") from None
    return models, pcfg


def _fresh_model(pcfg: PipelineConfig, scale_id, seed):
    """Untrained model of a scale id; 0 is the whole-cloud baseline."""
    with_fusion = scale_id > 1 and pcfg.k_fuse > 0
    try:
        params = init_params(pcfg.backbone, seed=seed + (scale_id or 999),
                             with_fusion=with_fusion)
    except MemoryError:
        shapes = param_shapes(pcfg.backbone, with_fusion=with_fusion)
        count = sum(math.prod(s) for s in shapes.values())
        raise ConfigError(
            f"feature_dim={pcfg.backbone.feature_dim}: a model of {count:,} "
            f"parameters does not fit in memory") from None
    return ScaleModel(params)


def _record(kind, **fields):
    """One machine-readable output line: a strict-JSON object led by its
    kind."""
    return json.dumps({"record": kind, **fields}, allow_nan=False)


def _run_record():
    """What ran: the KNN kernel and the BLAS threads, as OpenBLAS reads
    them from OPENBLAS_NUM_THREADS (see the package docstring)."""
    return _record("run", backend=backend(),
                   blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"))


def _gain_record(est):
    return _record("gain", sizes=list(est.sizes), whole_cost=est.whole_cost,
                   scalable_cost=est.scalable_cost, gain=est.gain,
                   reduction_ratio=est.reduction_ratio)


def _table(headers, rows):
    """Aligned plain-text table for humans; floats keep 6 significant
    digits."""
    cells = [[f"{c:.6g}" if isinstance(c, float) else str(c) for c in row]
             for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _scale_lines(report, arrivals_ms=None):
    """One scale record per scale, then the scale table."""
    headers = ["Scale", "Points", "Coarse", "Plan(ms)", "Encode(ms)",
               "Fuse(ms)", "Decode(ms)", "Cumulative(ms)", "Labels(ms)",
               "Pipelined(ms)", "Queries", "Evals"]
    keys = ["scale", "n_points", "n_coarse", "plan_ms", "encode_ms",
            "fuse_ms", "decode_ms", "cumulative_ms", "labels_ms",
            "pipelined_ms", "knn_queries", "distance_evals"]
    records = report.records(arrivals_ms)
    rows = [[rec[key] for key in keys] for rec in records]
    return ([_record("scale", **rec) for rec in records]
            + _table(headers, rows))


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args):
    cfg = _merge_config(args)
    if args.no_walls:
        cfg["walls"] = "0"
    if not args.out:
        raise ConfigError("generate requires --out")
    cloud = generate_scene(_scene_spec(cfg, _seed(cfg)))
    write_cloud(cloud, args.out)
    print(f"wrote {cloud.n} points, {cloud.num_classes} classes -> {args.out}")
    return 0


def cmd_partition(args):
    cfg = _merge_config(args)
    cloud = read_cloud(args.infile)
    parts = build_partitions(cloud, _partition_config(cfg))
    lines = [_record("partition", scale=i + 1, voxel_size=v, size=n)
             for i, (v, n) in enumerate(zip(parts.voxel_sizes, parts.sizes))]
    selected = sum(parts.sizes)
    lines.append(_record("selection", total=cloud.n, selected=selected,
                         unselected=cloud.n - selected))
    if all(n > 0 for n in parts.sizes):
        lines.append(_gain_record(estimate_gain(parts.sizes)))
    _emit(lines, args.out)
    return 0


def cmd_train(args):
    cfg = _merge_config(args)
    if args.baseline == (args.scale is not None):
        raise ConfigError("train requires exactly one of --scale N and --baseline")
    part_cfg = _partition_config(cfg)
    num_scales = part_cfg.num_scales
    if args.scale is not None and not 1 <= args.scale <= num_scales:
        raise ConfigError(f"--scale must lie in 1..{num_scales}")
    scenes, num_classes = _load_scenes(args, cfg, part_cfg)
    pcfg = _pipeline_config(cfg, num_classes)
    seed = _seed(cfg)
    tcfg = _build(TrainConfig, cfg, rng_seed=seed)
    extras = {"k_fuse": pcfg.k_fuse,
              "voxel_sizes": ",".join(map(repr, part_cfg.voxel_sizes))}
    if args.baseline:
        # the whole-cloud baseline is scale id 0: one "scale" holding the
        # union of all partitions, pooled from the finest voxel size, with
        # no lower scales to load
        scale_id = 0
        scenes = [(c, p.union()) for c, p in scenes]
    else:
        scale_id = args.scale
    extras.update(_role(scale_id))
    _require_points(scenes, scale_id)
    models, _ = _load_models(args.models, range(1, scale_id),
                             part_cfg.voxel_sizes, pcfg)
    for j, model in enumerate(models, start=1):
        if not model.frozen:
            raise CheckpointFormatError(
                f"scale {j} checkpoint is not frozen; train scales in order")
    trainee = _fresh_model(pcfg, scale_id, seed)
    try:
        losses = train_scale(models + [trainee], len(models) + 1, scenes,
                             pcfg, tcfg)
    except FloatingPointError as exc:
        raise ConfigError(f"{exc}; lower learning_rate") from None
    path = _model_path(args.models, scale_id)
    os.makedirs(args.models, exist_ok=True)
    save_checkpoint(path, trainee.params, pcfg.backbone, frozen=True,
                    extras=extras)

    lines = [_record("epoch", epoch=e, loss=loss)
             for e, loss in enumerate(losses, start=1)]
    lines.append(f"saved {path}")
    _emit(lines, args.out)
    return 0


def cmd_infer(args):
    cfg = _merge_config(args)
    cloud = read_cloud(args.infile)
    part_cfg = _partition_config(cfg)
    arrivals = None
    if args.arrival_times:
        try:
            arrivals = [float(t) for t in args.arrival_times.split(",")]
            simulate_schedule([0.0] * part_cfg.num_scales, arrivals)
        except ValueError as exc:
            raise ConfigError(
                f"--arrival-times {args.arrival_times!r}: {exc}") from None
    models, pcfg = _load_models(args.models, range(1, part_cfg.num_scales + 1),
                                part_cfg.voxel_sizes)
    parts = build_partitions(cloud, part_cfg)
    preds, report = run_pipeline(models, cloud, parts, pcfg,
                                 threaded=args.threaded)
    for line in [_run_record(), *_scale_lines(report, arrivals)]:
        print(line)
    if args.out:
        idx = np.concatenate(parts.partitions)
        labels = np.concatenate([p.labels for p in preds])
        out_cloud = gather(cloud, idx)
        out_cloud = type(out_cloud)(positions=out_cloud.positions,
                                    colors=out_cloud.colors, labels=labels,
                                    num_classes=pcfg.backbone.num_classes)
        write_cloud(out_cloud, args.out)
        print(f"wrote {out_cloud.n} predicted points -> {args.out}")
    return 0


def cmd_bench(args):
    cfg = _merge_config(args)
    seed = _seed(cfg)
    if args.infile:
        cloud = read_cloud(args.infile)
    else:
        cloud = generate_scene(_scene_spec(cfg, seed))
    part_cfg = _partition_config(cfg)
    # the scales, then the whole-cloud baseline (scale id 0)
    scale_ids = [*range(1, part_cfg.num_scales + 1), 0]
    if args.models:
        models, pcfg = _load_models(args.models, scale_ids, part_cfg.voxel_sizes)
    else:
        num_classes = cloud.num_classes if cloud.num_classes >= 2 else \
            _scene_spec(cfg, seed).num_classes
        pcfg = _pipeline_config(cfg, num_classes)
        models = [_fresh_model(pcfg, i, seed) for i in scale_ids]
    *models, baseline = models
    parts = build_partitions(cloud, part_cfg)
    _, report = run_pipeline(models, cloud, parts, pcfg,
                             threaded=args.threaded)
    _, base_report = run_pipeline([baseline], cloud, parts.union(), pcfg)
    [base] = base_report.scales
    lines = [_run_record(), *_scale_lines(report)]
    lines.append(_record("baseline", n_points=base.n_points,
                         wall_ms=base.labels_ms, plan_ms=base.plan_ms,
                         knn_queries=base.knn_queries,
                         distance_evals=base.distance_evals))
    scalable_evals = report.total_distance_evals
    scalable_wall = max(s.labels_ms for s in report.scales)
    lines.append(_record("scalable", total_ms=report.total_ms,
                         wall_ms=scalable_wall,
                         plan_ms=sum(s.plan_ms for s in report.scales),
                         knn_queries=sum(s.knn_queries for s in report.scales),
                         distance_evals=scalable_evals))
    if all(n > 0 for n in parts.sizes):
        est = estimate_gain(parts.sizes)
        lines.append(_gain_record(est))
        lines.append(_record(
            "ratio", predicted_ratio=est.reduction_ratio,
            measured_ratio=scalable_evals / base.distance_evals,
            speedup=base.labels_ms / scalable_wall))
    _emit(lines, args.out)
    return 0


def cmd_eval(args):
    cfg = _merge_config(args)
    part_cfg = _partition_config(cfg)
    scenes, num_classes = _load_scenes(args, cfg, part_cfg)
    scale_ids = range(1, part_cfg.num_scales + 1)
    for scale_id in scale_ids:
        _require_points(scenes, scale_id)
    models, pcfg = _load_models(args.models, scale_ids, part_cfg.voxel_sizes)
    if pcfg.backbone.num_classes != num_classes:
        raise CloudFormatError(
            f"models expect {pcfg.backbone.num_classes} classes, "
            f"data has {num_classes}")
    rows, _ = evaluate(models, scenes, pcfg)
    headers = ["Scale", "Method", "oAcc", "mAcc", "mIoU", "Time(ms)"]
    table_rows = [[r["scale"], r["method"], f"{r['oacc']:.4f}",
                   f"{r['macc']:.4f}", f"{r['miou']:.4f}",
                   f"{r['cumulative_ms']:.1f}"] for r in rows]
    lines = ([_run_record()] + [_record("metrics", **row) for row in rows]
             + _table(headers, table_rows))
    _emit(lines, args.out)
    return 0


def cmd_gain(args):
    _merge_config(args)  # a bad --config file is an error here too
    if not args.sizes:
        raise ConfigError("gain requires --sizes")
    try:
        sizes = [int(t) for t in args.sizes.split(",")]
    except ValueError:
        raise ConfigError(
            f"--sizes: expected integers, got {args.sizes!r}") from None
    if not sizes or any(s <= 0 for s in sizes):
        raise ConfigError("--sizes: partition sizes must be positive")
    _emit([_gain_record(estimate_gain(sizes))], args.out)
    return 0


# ---------------------------------------------------------------------------

THREADED_HELP = ("run scale 1 alone first, with every core for its neighbor "
                 "searches, then the rest on one worker thread per core, "
                 "lowest scale first; predictions are identical to a "
                 "sequential run")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--seed", type=int, help="RNG seed (default 0)")
    common.add_argument("--out", help="output file (default: stdout)")

    p = argparse.ArgumentParser(
        prog="scaleseg",
        description="Resolution-scalable 3D point-cloud semantic segmentation")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[common],
                       help="write a synthetic labeled scene")
    g.add_argument("--points", help="points per scene")
    g.add_argument("--classes", help="number of classes")
    g.add_argument("--objects", help="number of objects (floor/walls/boxes)")
    g.add_argument("--extents", help="room extents, e.g. 8,8,3")
    g.add_argument("--noise", help="color noise sigma")
    g.add_argument("--no-walls", action="store_true")
    g.set_defaults(fn=cmd_generate)

    q = sub.add_parser("partition", parents=[common],
                       help="partition a cloud into resolution scales")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--voxel-sizes", dest="voxel_sizes")
    q.set_defaults(fn=cmd_partition)

    t = sub.add_parser("train", parents=[common],
                       help="train one scale (lower scales stay frozen)")
    t.add_argument("--in", dest="infile",
                   help="comma-separated labeled cloud files")
    t.add_argument("--scenes", help="synthetic scene count when --in absent")
    t.add_argument("--points", help="points per synthetic scene")
    t.add_argument("--classes", help="classes per synthetic scene")
    t.add_argument("--scale", type=int, help="1-based scale to train")
    t.add_argument("--baseline", action="store_true",
                   help="train the whole-cloud baseline model instead")
    t.add_argument("--models", required=True, help="checkpoint directory")
    t.add_argument("--voxel-sizes", dest="voxel_sizes")
    t.add_argument("--epochs")
    t.add_argument("--batch-size", dest="batch_size")
    t.add_argument("--learning-rate", dest="learning_rate")
    t.add_argument("--momentum")
    t.add_argument("--feature-dim", dest="feature_dim")
    t.add_argument("--k-fuse", dest="k_fuse",
                   help="stored neighbors each point fuses with (default "
                        "8); 0 trains a model set without fusion")
    t.set_defaults(fn=cmd_train)

    i = sub.add_parser("infer", parents=[common],
                       help="multi-scale inference with latency report")
    i.add_argument("--in", dest="infile", required=True)
    i.add_argument("--models", required=True)
    i.add_argument("--voxel-sizes", dest="voxel_sizes")
    i.add_argument("--arrival-times",
                   help="per-scale arrival times in ms, e.g. 0,15,50")
    i.add_argument("--threaded", action="store_true", help=THREADED_HELP)
    i.set_defaults(fn=cmd_infer)

    b = sub.add_parser("bench", parents=[common],
                       help="scalable vs whole-cloud baseline comparison")
    b.add_argument("--in", dest="infile")
    b.add_argument("--models")
    b.add_argument("--voxel-sizes", dest="voxel_sizes")
    b.add_argument("--points")
    b.add_argument("--classes")
    b.add_argument("--threaded", action="store_true", help=THREADED_HELP)
    b.set_defaults(fn=cmd_bench)

    e = sub.add_parser("eval", parents=[common],
                       help="per-scale metrics of a trained model set")
    e.add_argument("--in", dest="infile")
    e.add_argument("--scenes")
    e.add_argument("--points")
    e.add_argument("--classes")
    e.add_argument("--models", required=True)
    e.add_argument("--voxel-sizes", dest="voxel_sizes")
    e.set_defaults(fn=cmd_eval)

    n = sub.add_parser("gain", parents=[common],
                       help="exact complexity accounting for partition sizes")
    n.add_argument("--sizes", help="comma-separated partition sizes")
    n.set_defaults(fn=cmd_gain)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (CloudFormatError, CloudExtentError, CheckpointFormatError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except (KeyError, IndexError) as exc:  # a bare lookup error names no cause
        print(f"internal invariant violation: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
