"""Operator-facing command line: generate, oracle, train-twist, train,
infer, evaluate.

Every command takes a JSON config (flags override paths and seed only),
rejects unknown keys, and stamps its outputs with the canonical config
hash, the seed, and the artifact version so reruns are byte-comparable.
Exit codes: 0 ok, 2 config error, 3 numerical collapse, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import __version__, svg
from . import twistnet as tn
from .bench import (DEFAULT_INFECT_PROB, BenchmarkDataset, brier_metric,
                    cross_entropy_metric, generate_dataset, generate_graph,
                    load_dataset, relative_parameter_error, save_dataset)
from .errors import (CollapseError, ConfigError, InconsistentObservationsError,
                     StateSpaceTooLargeError, StepSizeError)
from .ips import SIRSParams, rng_streams, write_path, PathSample
from . import oracle as orc
from .smc import SMCConfig, bpf_run, posterior_marginals_from_ensemble, run_smc
from .wakesleep import TrainConfig, sleep_steps, train


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _type_ok(value, tp):
    """Whether a JSON value fits a field's declared type: an int field
    takes an int only (no bool or float), a float field an int or a float
    (no bool), and "X | None" either."""
    if tp is float:
        return type(value) in (int, float)
    if tp is int:
        return type(value) is int
    args = typing.get_args(tp)
    if args:
        return any(_type_ok(value, a) for a in args)
    return isinstance(value, tp)


def _from_dict(cls, data, path="config"):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    types = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            val = data[f.name]
            if dataclasses.is_dataclass(types[f.name]) and isinstance(val, dict):
                val = _from_dict(types[f.name], val, f"{path}.{f.name}")
            if not _type_ok(val, types[f.name]):
                raise ConfigError(f"{path}.{f.name} must be of type "
                                  f"{f.type}, got {val!r}")
            kwargs[f.name] = val
    return cls(**kwargs)


def _check_positive(name, value):
    if not 0 < value < np.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass
class GenerateConfig:
    seed: int = 0
    out: str = "dataset"
    d: int = 32
    expected_degree: float = 5.0
    feature_dim: int = 16
    T: float = 10.0
    K: int = 10
    p_mask: float = 0.5
    delta: float = 0.001
    n_train: int = 50
    n_test: int = 50
    infect_prob: float = DEFAULT_INFECT_PROB
    params: SIRSParams = field(default_factory=SIRSParams)


@dataclass
class OracleConfig:
    seed: int = 0
    out: str = "oracle_out"
    dataset: str = "dataset"
    split: str = "train"
    index: int = 0
    grid_target: float = 0.1


@dataclass
class TrainTwistConfig:
    seed: int = 0
    out: str = "twist_out"
    dataset: str = "dataset"
    steps: int = 1000
    batch: int = 32
    dt: float = 0.1
    lr: float = 0.001
    m: int = 64
    loss: str = "kl"
    mc_loss: bool = True
    reuse: int = 25
    checkpoint_every: int = 0   # 0: only final


@dataclass
class TrainRunConfig:
    seed: int = 0
    out: str = "train_out"
    dataset: str = "dataset"
    G: int = 25
    N: int = 25
    B: int = 16
    S: int = 10
    dt: float = 0.05
    reuse: int = 25
    lr_psi: float = 0.0003
    lr_theta: float = 0.005
    mc_loss: bool = True
    loss: str = "kl"
    m: int = 64
    pretrain_steps: int = 2500
    theta_init: float = 0.2
    ess_threshold: float = 1.0


@dataclass
class InferConfig:
    seed: int = 0
    out: str = "infer_out"
    dataset: str = "dataset"
    split: str = "test"
    indices: list | None = None
    method: str = "tsmc-kl"
    checkpoint: str | None = None
    S: int = 0            # 0: method default (25 twisted, 250 bootstrap)
    dt: float = 0.1
    epsilon: float = 0.001
    theta: list | None = None
    store_particles: bool = False
    ess_threshold: float = 1.0


@dataclass
class EvaluateConfig:
    seed: int = 0
    out: str = "evaluate_out"
    inputs: list = field(default_factory=list)


def _write_rows(path, header_cols, rows, meta):
    with open(path, "w") as f:
        _write_header(f, header_cols, meta)
        for row in rows:
            f.write(",".join(_cell(x) for x in row) + "\n")


def _write_header(f, header_cols, meta):
    f.write(f"# config_hash={meta['config_hash']} seed={meta['seed']} "
            f"version={meta['version']}\n")
    f.write(",".join(header_cols) + "\n")


def _cell(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


@contextlib.contextmanager
def _mapper(threads):
    """The map that spreads a command's independent jobs: builtin map for
    one thread, which starts no worker, else a pool's map."""
    if threads == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield pool.map


def _meta(cfg_dict, seed):
    return {"config_hash": config_hash(cfg_dict), "seed": seed,
            "version": __version__}


def _write_manifest(out_dir, meta, command):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump({"command": command, **meta}, f, sort_keys=True)


# ---------------------------------------------------------------------------
# commands

def cmd_generate(cfg: GenerateConfig, threads=1, emit_svg=False):
    rng = np.random.default_rng(cfg.seed)
    spec = generate_graph(cfg.d, cfg.expected_degree, cfg.feature_dim, rng)
    ds = generate_dataset(spec, cfg.params, cfg.T, cfg.K, cfg.p_mask, cfg.delta,
                          cfg.n_train, cfg.n_test, seed=cfg.seed,
                          infect_prob=cfg.infect_prob)
    save_dataset(ds, cfg.out)
    meta = _meta(dataclasses.asdict(cfg), cfg.seed)
    _write_manifest(cfg.out, meta, "generate")


def cmd_oracle(cfg: OracleConfig, threads=1, emit_svg=False):
    _check_positive("grid_target", cfg.grid_target)
    ds = load_dataset(cfg.dataset)
    _, obs_list = _split(ds, cfg.split)
    _check_indices([cfg.index], obs_list, cfg.split)
    obs = obs_list[cfg.index]
    model = ds.model
    orc.n_states(ds.spec)  # guard before any heavy work
    grid = orc.oracle_grid(model, ds.spec, ds.params, obs, target=cfg.grid_target)
    p0 = _dense_p0(ds)
    marg, logz = orc.exact_posterior_marginals(model, ds.spec, ds.params, p0, obs, grid)
    meta = _meta(dataclasses.asdict(cfg), cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "marginals.csv"), "w") as f:
        _write_header(f, ["time", "state", "probability"], meta)
        _write_marginal_rows(f, grid, marg)
    _write_rows(os.path.join(cfg.out, "logz.csv"), ["logz"], [(float(logz),)], meta)
    _write_manifest(cfg.out, meta, "oracle")


def _write_marginal_rows(f, grid, marg):
    """The (time, state, probability) rows _write_rows would write for an
    (M+1, n) table on the grid, formatted one grid row at a time: the repr
    of a list of floats is the reprs of its entries joined by ", "."""
    cells = [f",{s}," for s in range(marg.shape[1])]
    for t, probs in zip(grid.tolist(), marg):
        reprs = repr(probs.tolist())[1:-1].split(", ")
        f.write("".join(map("".join, zip(repeat(repr(t)), cells, reprs,
                                         repeat("\n")))))


def _split(ds: BenchmarkDataset, split):
    """The (paths, observations) of the train or test split."""
    if split == "train":
        return ds.train_paths, ds.train_obs
    if split == "test":
        return ds.test_paths, ds.test_obs
    raise ConfigError(f"split must be 'train' or 'test', got {split!r}")


def _check_indices(indices, obs_list, split):
    for i in indices:
        if type(i) is not int or not 0 <= i < len(obs_list):
            raise ConfigError(f"index {i!r} is not an integer in "
                              f"[0, {len(obs_list)}) for split {split!r}")


def _dense_p0(ds: BenchmarkDataset):
    table = orc.state_table(ds.spec)
    fac = ds.p0()
    return np.exp(fac.log_pmf_batch(table))


def cmd_train_twist(cfg: TrainTwistConfig, threads=1, emit_svg=False, resume=None):
    if min(cfg.steps, cfg.checkpoint_every) < 0:
        raise ConfigError("steps and checkpoint_every must be >= 0")
    wcfg = TrainConfig(batch=cfg.batch, dt=cfg.dt, mc_loss=cfg.mc_loss,
                       reuse=cfg.reuse, lr_psi=cfg.lr, seed=cfg.seed,
                       loss=cfg.loss, width=cfg.m, pretrain_steps=0)
    if cfg.checkpoint_every and cfg.checkpoint_every % cfg.reuse:
        raise ConfigError("checkpoint_every must be a multiple of reuse")
    ds = load_dataset(cfg.dataset)
    model = ds.model
    p0 = ds.p0()
    meta = _meta(dataclasses.asdict(cfg), cfg.seed)

    rng = np.random.default_rng(cfg.seed)
    if resume is not None:
        psi, adam, header = tn.load_checkpoint(resume)
        _check_resume(header, psi, cfg)
        rng.bit_generator.state = json.loads(header["rng_state"])
        start = int(header["step"])
    else:
        psi = tn.init_params(ds.spec.V, m=cfg.m, seed=cfg.seed)
        adam = tn.AdamState.init(psi.arrays())
        start = 0
    os.makedirs(cfg.out, exist_ok=True)

    telemetry = []
    step = start
    steps = sleep_steps(psi, adam, ds.params, model, ds.spec, p0, ds.train_obs,
                        wcfg, rng, cfg.steps - start)
    for step, (psi, loss) in enumerate(steps, start + 1):
        telemetry.append((step, float(loss)))
        if cfg.checkpoint_every and step % cfg.checkpoint_every == 0 and step < cfg.steps:
            _save_twist(os.path.join(cfg.out, f"twist_step{step:06d}.npz"),
                        psi, adam, rng, step, cfg, meta)
    _save_twist(os.path.join(cfg.out, "twist.npz"), psi, adam, rng, step, cfg, meta)
    _write_rows(os.path.join(cfg.out, "telemetry.csv"), ["step", "loss"],
                telemetry, meta)
    if emit_svg:
        svg.line_chart(os.path.join(cfg.out, "loss.svg"),
                       [("sleep loss", [r[0] for r in telemetry],
                         [r[1] for r in telemetry])],
                       title="twist training", xlabel="step", ylabel="loss")
    _write_manifest(cfg.out, meta, "train-twist")


# config keys a train-twist checkpoint records for --resume to check
_RESUME_KEYS = ("loss", "seed", "batch", "dt", "lr", "reuse", "mc_loss")


def _check_resume(header, psi, cfg: TrainTwistConfig):
    """Reject a checkpoint that train-twist did not write, one past the
    config's steps, or one written under another loss, width, seed, batch,
    dt, lr, reuse or mc_loss."""
    missing = [k for k in ("step", "rng_state") if k not in header]
    if missing:
        raise ConfigError(f"resume checkpoint lacks {missing}; only "
                          f"train-twist checkpoints can be resumed")
    if int(header["step"]) > cfg.steps:
        raise ConfigError(f"resume checkpoint is at step {header['step']}, "
                          f"past the config's steps {cfg.steps}")
    checks = [(k, header.get(k), getattr(cfg, k)) for k in _RESUME_KEYS]
    for name, saved, want in checks + [("m", psi.m, cfg.m)]:
        if saved != want:
            raise ConfigError(f"resume checkpoint has {name} {saved!r}, "
                              f"config has {want!r}")


def _save_twist(path, psi, adam, rng, step, cfg, meta):
    tn.save_checkpoint(path, psi, adam,
                       meta={"step": step,
                             "rng_state": json.dumps(rng.bit_generator.state),
                             "config_hash": meta["config_hash"],
                             "version": meta["version"],
                             **{k: getattr(cfg, k) for k in _RESUME_KEYS}})


def cmd_train(cfg: TrainRunConfig, threads=1, emit_svg=False):
    _check_positive("theta_init", cfg.theta_init)
    ds = load_dataset(cfg.dataset)
    model = ds.model
    wcfg = TrainConfig(global_iters=cfg.G, steps_per_phase=cfg.N, batch=cfg.B,
                       particles=cfg.S, dt=cfg.dt, mc_loss=cfg.mc_loss,
                       reuse=cfg.reuse, lr_psi=cfg.lr_psi, lr_theta=cfg.lr_theta,
                       seed=cfg.seed, loss=cfg.loss, width=cfg.m,
                       ess_threshold=cfg.ess_threshold,
                       pretrain_steps=cfg.pretrain_steps)
    names = [f.name for f in dataclasses.fields(ds.params)]
    theta0 = type(ds.params)(*[cfg.theta_init] * len(names))
    meta = _meta(dataclasses.asdict(cfg), cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    with _mapper(threads) as mapper:
        theta_state, psi, telemetry = train(model, ds.spec, ds.p0(), ds.train_obs,
                                            theta0, wcfg, checkpoint_dir=cfg.out,
                                            mapper=mapper)
    truth = dataclasses.astuple(ds.params)
    # the relative error divides by every true rate; with a zero rate it
    # is undefined and reported as NaN
    scored = min(truth) > 0

    def rpe(theta):
        return relative_parameter_error(theta, truth) if scored else float("nan")

    cols = ["global_iter", "phase", "step", "loss", "mean_ess", "min_ess", *names]
    errors = [rpe([r[n] for n in names]) for r in telemetry.rows]
    rows = [(*(r[c] for c in cols), e) for r, e in zip(telemetry.rows, errors)]
    _write_rows(os.path.join(cfg.out, "telemetry.csv"), cols + ["rpe"], rows, meta)
    final = theta_state.params()
    with open(os.path.join(cfg.out, "theta.json"), "w") as f:
        json.dump({**dataclasses.asdict(final), "rpe": rpe(dataclasses.astuple(final)),
                   **meta}, f, sort_keys=True)
    tn.save_checkpoint(os.path.join(cfg.out, "twist.npz"), psi,
                       meta={"loss": cfg.loss, **meta})
    if emit_svg and scored:
        wake = [(r["step"] + (r["global_iter"] - 1) * cfg.N, e)
                for r, e in zip(telemetry.rows, errors) if r["phase"] == "wake"]
        if wake:
            svg.line_chart(os.path.join(cfg.out, "rpe.svg"),
                           [("rpe", [w[0] for w in wake], [w[1] for w in wake])],
                           title="parameter recovery", xlabel="wake step",
                           ylabel="rpe")
    _write_manifest(cfg.out, meta, "train")


def cmd_infer(cfg: InferConfig, threads=1, emit_svg=False):
    if not 0 <= cfg.epsilon <= 1:
        raise ConfigError(f"epsilon must lie in [0, 1], got {cfg.epsilon}")
    _check_positive("dt", cfg.dt)
    ds = load_dataset(cfg.dataset)
    model = ds.model
    if cfg.method not in ("tsmc-kl", "tsmc-dre", "bpf"):
        raise ConfigError(f"unknown method {cfg.method}")
    paths, obs_list = _split(ds, cfg.split)
    indices = cfg.indices if cfg.indices is not None else list(range(len(obs_list)))
    _check_indices(indices, obs_list, cfg.split)
    names = [f.name for f in dataclasses.fields(ds.params)]
    if cfg.theta is not None and (len(cfg.theta) != len(names) or not all(
            _type_ok(x, float) for x in cfg.theta)):
        raise ConfigError(f"theta must list {len(names)} rates: {', '.join(names)}")
    theta = (type(ds.params)(*cfg.theta) if cfg.theta is not None else ds.params)
    S = cfg.S or (250 if cfg.method == "bpf" else 25)
    psi = None
    if cfg.method.startswith("tsmc"):
        if cfg.checkpoint is None:
            raise ConfigError("twisted methods need a twist checkpoint")
        psi, _, header = tn.load_checkpoint(cfg.checkpoint)
        want = cfg.method.split("-", 1)[1]
        if header.get("loss") not in (None, want):
            raise ConfigError(
                f"checkpoint was trained with loss {header.get('loss')!r}, "
                f"method expects {want!r}")
    meta = _meta(dataclasses.asdict(cfg), cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    p0 = ds.p0()
    seeds = rng_streams(cfg.seed, len(indices))

    def one(j):
        idx = indices[j]
        obs = obs_list[idx]
        sub_seed = int(seeds[j].integers(2**63))
        smc_cfg = SMCConfig(S=S, dt=cfg.dt, ess_threshold=cfg.ess_threshold,
                            seed=sub_seed)
        if cfg.method == "bpf":
            ens, logz = bpf_run(model, ds.spec, theta, p0, obs, smc_cfg)
        else:
            twist = tn.LearnedTwist(psi, ds.spec, obs)
            ens, logz = run_smc(model, ds.spec, theta, twist, p0, obs, smc_cfg)
        marg = posterior_marginals_from_ensemble(ens, ds.spec.V, eps=cfg.epsilon)
        if not cfg.store_particles:
            # the paths are only written out as particles; free them before
            # the remaining paths run
            ens.trajectories = None
        truth = paths[idx].states_at(ens.grid)
        ce = cross_entropy_metric(marg, truth)
        brier = brier_metric(marg, truth)
        return idx, ens, logz, ce, brier

    with _mapper(threads) as mapper:
        results = list(mapper(one, range(len(indices))))

    metric_rows = []
    for idx, ens, logz, ce, brier in results:
        sub = os.path.join(cfg.out, str(idx))
        os.makedirs(sub, exist_ok=True)
        _write_rows(os.path.join(sub, "ess_history.csv"), ["time", "ess"],
                    [(float(t), float(e)) for t, e in ens.ess_history], meta)
        _write_rows(os.path.join(sub, "logz.csv"), ["logz"], [(float(logz),)], meta)
        if cfg.store_particles:
            pdir = os.path.join(sub, "particles")
            os.makedirs(pdir, exist_ok=True)
            for s in range(ens.S):
                with open(os.path.join(pdir, f"{s}.path"), "w") as f:
                    write_path(f, _grid_to_path(ens, s), ds.spec.V)
        if emit_svg:
            svg.line_chart(os.path.join(sub, "ess.svg"),
                           [("ess", [t for t, _ in ens.ess_history],
                             [e for _, e in ens.ess_history])],
                           title=f"trajectory {idx}", xlabel="t", ylabel="ESS")
        metric_rows.append((idx, ce, brier, float(logz)))
    _write_rows(os.path.join(cfg.out, "metrics.csv"),
                ["index", "ce", "brier", "logz"], metric_rows, meta)
    _write_manifest(cfg.out, meta, "infer")


def _grid_to_path(ens, s):
    traj = ens.trajectories[s]
    grid = ens.grid
    times, nodes, values = [], [], []
    for m in range(1, len(grid)):
        diff = np.flatnonzero(traj[m] != traj[m - 1])
        for i in diff:
            times.append(float(grid[m]))
            nodes.append(int(i))
            values.append(int(traj[m][i]))
    # grid-aligned jump records may share a time; nudge within the step
    times = np.array(times)
    for k in range(1, len(times)):
        if times[k] <= times[k - 1]:
            times[k] = times[k - 1] + 1e-9
    return PathSample(horizon=float(grid[-1]) + 1e-6, initial=traj[0],
                      jump_times=times, jump_nodes=np.array(nodes, dtype=np.int64),
                      jump_values=np.array(values, dtype=np.int64))


def cmd_evaluate(cfg: EvaluateConfig, threads=1, emit_svg=False):
    if not cfg.inputs:
        raise ConfigError("evaluate needs at least one infer output directory")
    if not all(isinstance(inp, str) for inp in cfg.inputs):
        raise ConfigError(f"inputs must be directory names, got {cfg.inputs!r}")
    meta = _meta(dataclasses.asdict(cfg), cfg.seed)
    rows = []
    series = []
    for inp in cfg.inputs:
        path = os.path.join(inp, "metrics.csv")
        if not os.path.exists(path):
            raise ConfigError(f"no metrics.csv under {inp}")
        ces, briers = [], []
        with open(path) as f:
            f.readline()
            f.readline()
            for line in f:
                _, ce, brier, _ = line.strip().split(",")
                ces.append(float(ce))
                briers.append(float(brier))
        if not ces:
            raise ConfigError(f"{path} holds no trajectories")
        ces = np.array(ces)
        briers = np.array(briers)
        n = len(ces)
        se = float(ces.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        se_b = float(briers.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        rows.append((inp, n, float(ces.mean()), 2 * se, float(briers.mean()),
                     2 * se_b))
        series.append((os.path.basename(inp.rstrip("/")), list(range(n)),
                       sorted(ces.tolist())))
    os.makedirs(cfg.out, exist_ok=True)
    _write_rows(os.path.join(cfg.out, "aggregate.csv"),
                ["input", "n", "ce_mean", "ce_2se", "brier_mean", "brier_2se"],
                rows, meta)
    if emit_svg:
        svg.line_chart(os.path.join(cfg.out, "ce.svg"), series,
                       title="per-trajectory CE (sorted)", xlabel="rank",
                       ylabel="CE")
    _write_manifest(cfg.out, meta, "evaluate")


# ---------------------------------------------------------------------------

_SCHEMAS = {
    "generate": (GenerateConfig, cmd_generate),
    "oracle": (OracleConfig, cmd_oracle),
    "train-twist": (TrainTwistConfig, cmd_train_twist),
    "train": (TrainRunConfig, cmd_train),
    "infer": (InferConfig, cmd_infer),
    "evaluate": (EvaluateConfig, cmd_evaluate),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="ipsmc")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SCHEMAS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--threads", help="worker threads (default: "
                       "IPSMC_THREADS, else 1)")
        p.add_argument("--svg", action="store_true", help="emit static charts")
        if name == "train-twist":
            p.add_argument("--resume", help="checkpoint to continue from")
    return parser


def _resolve_config(args):
    data = {}
    if args.config:
        try:
            with open(args.config) as f:
                data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON config: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {data!r}")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["out"] = args.out
    if "seed" not in data:
        env = os.environ.get("IPSMC_SEED")
        if env is not None:
            data["seed"] = int(env)
    cls, fn = _SCHEMAS[args.command]
    return _from_dict(cls, data), fn


def _threads(args):
    raw = args.threads or os.environ.get("IPSMC_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"thread count must be an integer >= 1, got {raw!r}")
    return int(raw)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg, fn = _resolve_config(args)
        kwargs = {"threads": _threads(args), "emit_svg": args.svg}
        if args.command == "train-twist":
            kwargs["resume"] = args.resume
        fn(cfg, **kwargs)
        return 0
    except (CollapseError, InconsistentObservationsError) as e:
        # the exact posterior of inconsistent observations has no mass
        print(f"numerical collapse: {e}", file=sys.stderr)
        return 3
    except (ConfigError, StateSpaceTooLargeError, StepSizeError, ValueError) as e:
        # an Euler step too coarse for the rates is fixed by a smaller dt
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # arrays sized by the config (a grid of a tiny dt, say) that do not
        # fit are fixed by a smaller problem
        print(f"config error: out of memory: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
