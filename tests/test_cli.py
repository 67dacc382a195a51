import dataclasses
import filecmp
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ipsmc.bench import relative_parameter_error
from ipsmc.cli import GenerateConfig, config_hash, main
from ipsmc.ips import SIRSParams


def write_cfg(tmp_path, name, payload):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


def dir_digest(root):
    out = {}
    for base, _, files in os.walk(root):
        for fn in sorted(files):
            p = os.path.join(base, fn)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = f.read()
    return out


TINY_GEN = {
    "d": 3, "T": 2.0, "K": 3, "n_train": 4, "n_test": 3, "feature_dim": 4,
    "expected_degree": 1.5, "seed": 7,
    "params": {"alpha0": 0.3, "alpha1": 1.0, "beta": 0.5, "gamma": 0.3},
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = dict(TINY_GEN, out=str(root / "ds"))
    path = write_cfg(root, "gen.json", cfg)
    assert main(["generate", "--config", path]) == 0
    return str(root / "ds")


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "bad.json", {"d": 4, "bogus": 1})
        assert main(["generate", "--config", path]) == 2

    def test_malformed_json_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "broken.json")
        with open(path, "w") as f:
            f.write("{not json")
        assert main(["generate", "--config", path]) == 2

    def test_hash_stable_under_key_reordering(self):
        a = {"seed": 1, "d": 4, "out": "x"}
        b = {"out": "x", "d": 4, "seed": 1}
        assert config_hash(a) == config_hash(b)

    def test_defaults_match_benchmark_protocol(self):
        cfg = GenerateConfig()
        assert cfg.d == 32
        assert cfg.T == 10.0
        assert cfg.K == 10
        assert cfg.p_mask == 0.5
        assert cfg.n_train == 50 and cfg.n_test == 50
        assert (cfg.params.alpha0, cfg.params.alpha1, cfg.params.beta,
                cfg.params.gamma) == (0.1, 1.0, 0.4, 0.05)

    def test_partial_params_keep_defaults(self, tmp_path):
        # a nested dict sets only the rates it names; the others keep their
        # defaults, and the hash is that of the whole resolved config
        out = tmp_path / "ds"
        cfg = dict(TINY_GEN, params={"beta": 0.5}, out=str(out))
        assert main(["generate", "--config", write_cfg(tmp_path, "gen.json", cfg)]) == 0
        assert (out / "params.json").read_text() == (
            '{"K": 3, "T": 2.0, "alpha0": 0.1, "alpha1": 1.0, "beta": 0.5, '
            '"gamma": 0.05, "infect_prob": 0.1, "label_noise": 0.001, '
            '"p_mask": 0.5}')
        resolved = GenerateConfig(**dict(cfg, params=SIRSParams(beta=0.5)))
        with open(out / "manifest.json") as f:
            assert json.load(f)["config_hash"] == config_hash(
                dataclasses.asdict(resolved))

    @pytest.mark.parametrize("payload", [5, [1, 2], "x", None])
    def test_non_object_config_rejected(self, tmp_path, capsys, payload):
        path = write_cfg(tmp_path, "gen.json", payload)
        assert main(["generate", "--config", path]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [[0.1, 1.0, 0.4, 0.05], 0.4, "fast"])
    def test_non_dict_params_rejected(self, tmp_path, capsys, params):
        out = tmp_path / "ds"
        cfg = dict(TINY_GEN, params=params, out=str(out))
        assert main(["generate", "--config", write_cfg(tmp_path, "gen.json", cfg)]) == 2
        assert "config.params must be of type" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("env, flag", [("two", None), ("0", None),
                                           ("1", "0"), ("1", "-2"), ("1", "1.5")])
    def test_bad_thread_count_rejected(self, tmp_path, monkeypatch, env, flag):
        monkeypatch.setenv("IPSMC_THREADS", env)
        out = tmp_path / "ds"
        path = write_cfg(tmp_path, "gen.json", dict(TINY_GEN, out=str(out)))
        argv = ["generate", "--config", path]
        if flag is not None:
            argv += ["--threads", flag]
        assert main(argv) == 2
        assert not os.path.exists(out)

    def test_env_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IPSMC_THREADS", "2")
        path = write_cfg(tmp_path, "gen.json",
                         dict(TINY_GEN, out=str(tmp_path / "ds")))
        assert main(["generate", "--config", path]) == 0

    def test_cli_imports_numpy_only(self):
        # a fresh interpreter, so that no other test's imports count
        import ipsmc

        src = os.path.dirname(os.path.dirname(ipsmc.__file__))
        code = ("import sys, ipsmc.cli; "
                "print(sorted(m.split('.')[0] for m in sys.modules "
                "if m.split('.')[0] in ('networkx', 'scipy')))")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IPSMC_SEED", "55")
        cfg = dict(TINY_GEN, out=str(tmp_path / "ds"))
        del cfg["seed"]
        path = write_cfg(tmp_path, "gen.json", cfg)
        assert main(["generate", "--config", path]) == 0
        with open(tmp_path / "ds" / "manifest.json") as f:
            assert json.load(f)["seed"] == 55


class TestGenerate:
    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            cfg = dict(TINY_GEN, out=str(tmp_path / sub))
            path = write_cfg(tmp_path, f"gen_{sub}.json", cfg)
            assert main(["generate", "--config", path]) == 0
        da, db = dir_digest(tmp_path / "a"), dir_digest(tmp_path / "b")
        assert set(da) == set(db)
        for k in da:
            if k == "manifest.json":
                continue  # embeds the out path via the config hash
            assert da[k] == db[k], k

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_rate_rejected(self, tmp_path, bad):
        params = dict(TINY_GEN["params"], alpha0=bad)
        cfg = dict(TINY_GEN, params=params, out=str(tmp_path / "ds"))
        path = write_cfg(tmp_path, "gen.json", cfg)
        assert main(["generate", "--config", path]) == 2
        assert not os.path.exists(tmp_path / "ds")

    def test_threads_do_not_change_bytes(self, tmp_path):
        outs = []
        for sub, threads in (("t1", "1"), ("t8", "8")):
            cfg = dict(TINY_GEN, out=str(tmp_path / sub))
            path = write_cfg(tmp_path, f"gen_{sub}.json", cfg)
            assert main(["generate", "--config", path, "--threads", threads]) == 0
            outs.append({k: v for k, v in dir_digest(tmp_path / sub).items()
                         if k != "manifest.json"})
        assert outs[0] == outs[1]


class TestOracle:
    def test_emits_marginals_and_logz(self, dataset, tmp_path):
        path = write_cfg(tmp_path, "orc.json",
                         {"dataset": dataset, "out": str(tmp_path / "orc"),
                          "index": 1})
        assert main(["oracle", "--config", path]) == 0
        with open(tmp_path / "orc" / "marginals.csv") as f:
            assert f.readline().startswith("# config_hash=")
            assert f.readline().strip() == "time,state,probability"
            rows = [line.split(",") for line in f]
        # one row per grid time and state of the 27-state system, each
        # time's probabilities summing to one
        times = sorted({float(r[0]) for r in rows})
        assert len(rows) == 27 * len(times)
        for t in times:
            total = sum(float(r[2]) for r in rows if float(r[0]) == t)
            assert total == pytest.approx(1.0, abs=1e-12)
        with open(tmp_path / "orc" / "logz.csv") as f:
            f.readline()
            f.readline()
            val = float(f.readline())
        assert np.isfinite(val) and val < 0

    def test_marginals_csv_bytes(self, dataset, tmp_path):
        # the row-at-a-time writer must give exactly what _write_rows writes
        # for the (time, state, probability) rows, every cell the exact float
        from ipsmc import cli, oracle as orc
        from ipsmc.bench import load_dataset
        from ipsmc.ips import sirs_model

        out = tmp_path / "orc"
        path = write_cfg(tmp_path, "orc.json",
                         {"dataset": dataset, "out": str(out), "index": 2})
        assert main(["oracle", "--config", path]) == 0
        ds = load_dataset(dataset)
        obs = ds.train_obs[2]
        grid = orc.oracle_grid(sirs_model(), ds.spec, ds.params, obs, target=0.1)
        marg, _ = orc.exact_posterior_marginals(sirs_model(), ds.spec, ds.params,
                                                cli._dense_p0(ds), obs, grid)
        written = (out / "marginals.csv").read_bytes()
        first = written.split(b"\n", 1)[0].decode()
        meta = dict(kv.split("=") for kv in first[2:].split(" "))
        rows = [(float(t), s, float(p)) for j, t in enumerate(grid)
                for s, p in enumerate(marg[j])]
        cli._write_rows(tmp_path / "ref.csv", ["time", "state", "probability"],
                        rows, meta)
        assert written == (tmp_path / "ref.csv").read_bytes()
        lines = written.decode().splitlines()[2:]
        assert len(lines) == marg.size
        for line, (t, s, p) in zip(lines, rows):
            ct, cs, cp = line.split(",")
            assert (float(ct), int(cs), float(cp)) == (t, s, p)

    def test_marginal_rows_match_f_string(self):
        # the row writer against the per-cell f-string it replaced, on
        # zeros, subnormals, tiny, inexact and unit probabilities
        import io

        from ipsmc import cli

        grid = np.array([0.0, 0.1, 1 / 3])
        marg = np.array([[0.0, 5e-324, 1e-300, 1 / 3, 1.0],
                         [1.0, 0.0, 0.0, 0.0, 0.0],
                         [1 / 3, 1e-300, 5e-324, 2 / 3, 0.0]])
        f = io.StringIO()
        cli._write_marginal_rows(f, grid, marg)
        old = "".join(f"{t!r},{s},{p!r}\n" for t, probs in zip(grid.tolist(), marg)
                      for s, p in enumerate(probs.tolist()))
        assert f.getvalue() == old

    def test_no_observation_logz_zero(self, tmp_path):
        gen = dict(TINY_GEN, K=0, out=str(tmp_path / "ds0"))
        gpath = write_cfg(tmp_path, "gen0.json", gen)
        assert main(["generate", "--config", gpath]) == 0
        path = write_cfg(tmp_path, "orc0.json",
                         {"dataset": str(tmp_path / "ds0"),
                          "out": str(tmp_path / "orc0"), "index": 0})
        assert main(["oracle", "--config", path]) == 0
        with open(tmp_path / "orc0" / "logz.csv") as f:
            f.readline()
            f.readline()
            assert abs(float(f.readline())) < 1e-9

    def test_rejects_oversized_state_space(self, tmp_path):
        gen = dict(TINY_GEN, d=21, out=str(tmp_path / "dsbig"), n_train=1,
                   n_test=0, K=1)
        gpath = write_cfg(tmp_path, "genbig.json", gen)
        assert main(["generate", "--config", gpath]) == 0
        path = write_cfg(tmp_path, "orcbig.json",
                         {"dataset": str(tmp_path / "dsbig"),
                          "out": str(tmp_path / "orcbig")})
        assert main(["oracle", "--config", path]) == 2

    def test_rejects_generator_over_memory_guard(self, tmp_path):
        # 3**9 = 19,683 states: a 3.1 GB dense generator, refused before
        # any state table or generator is allocated
        gen = dict(TINY_GEN, d=9, out=str(tmp_path / "ds9"), n_train=1,
                   n_test=0, K=1)
        assert main(["generate", "--config",
                     write_cfg(tmp_path, "gen9.json", gen)]) == 0
        path = write_cfg(tmp_path, "orc9.json",
                         {"dataset": str(tmp_path / "ds9"),
                          "out": str(tmp_path / "orc9")})
        tracemalloc.start()
        try:
            assert main(["oracle", "--config", path]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22
        assert not os.path.exists(tmp_path / "orc9")

    @pytest.mark.parametrize("key, value", [("index", -1), ("index", 4),
                                            ("index", 1.0), ("split", "validation")])
    def test_rejects_bad_trajectory_choice(self, dataset, tmp_path, key, value):
        out = tmp_path / "orc"
        path = write_cfg(tmp_path, "orc.json",
                         {"dataset": dataset, "out": str(out), key: value})
        assert main(["oracle", "--config", path]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("target", [0, -1, float("inf"), float("nan")])
    def test_rejects_bad_grid_target(self, dataset, tmp_path, target):
        out = tmp_path / "orc"
        path = write_cfg(tmp_path, "orc.json", {"dataset": dataset, "out": str(out),
                                                "grid_target": target})
        assert main(["oracle", "--config", path]) == 2
        assert not os.path.exists(out)

    def test_uniformization_failure_is_collapse(self, tmp_path):
        # R -> S at rate 1e6 on a four-step grid: about 3e5 expected
        # uniformized jumps per step, past the series' iteration cap
        params = dict(TINY_GEN["params"], gamma=1e6)
        gen = dict(TINY_GEN, params=params, out=str(tmp_path / "dsfast"),
                   n_train=1, n_test=0)
        assert main(["generate", "--config",
                     write_cfg(tmp_path, "genfast.json", gen)]) == 0
        out = tmp_path / "orcfast"
        path = write_cfg(tmp_path, "orcfast.json",
                         {"dataset": str(tmp_path / "dsfast"), "out": str(out),
                          "grid_target": 1e9})
        assert main(["oracle", "--config", path]) == 3
        assert not os.path.exists(out)

    def test_noiseless_data_from_the_model(self, tmp_path):
        # exact, unmasked snapshots of the model's own paths with gamma 0:
        # the look-ahead vanishes on both sides of a snapshot at many
        # states, which must leave the posterior finite
        gen = dict(TINY_GEN, params=dict(TINY_GEN["params"], gamma=0.0),
                   delta=0.0, p_mask=0.0, feature_dim=2, n_train=2, n_test=1,
                   out=str(tmp_path / "ds"))
        assert main(["generate", "--config",
                     write_cfg(tmp_path, "gen.json", gen)]) == 0
        out = tmp_path / "orc"
        path = write_cfg(tmp_path, "orc.json",
                         {"dataset": str(tmp_path / "ds"), "out": str(out)})
        with pytest.warns(UserWarning, match="non-positive potential"):
            assert main(["oracle", "--config", path]) == 0
        with open(out / "logz.csv") as f:
            f.readline()
            f.readline()
            assert np.isfinite(float(f.readline()))

    def test_inconsistent_observations_exit_code(self, tmp_path, capsys):
        # exact, unmasked snapshots and no R -> S rate (gamma 0): a node
        # observed in R and then in S leaves the exact posterior no mass,
        # already at time 0
        params = dict(TINY_GEN["params"], gamma=0.0)
        gen = dict(TINY_GEN, params=params, delta=0.0, p_mask=0.0,
                   n_train=1, n_test=0, out=str(tmp_path / "dsrs"))
        assert main(["generate", "--config",
                     write_cfg(tmp_path, "genrs.json", gen)]) == 0
        obs_file = tmp_path / "dsrs" / "obs" / "train" / "0.obs"
        lines = obs_file.read_text().splitlines()
        for k, value in ((1, 2), (2, 0)):
            t, _, *rest = lines[k].split(",")
            lines[k] = ",".join([t, str(value), *rest])
        obs_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "orcrs"
        path = write_cfg(tmp_path, "orcrs.json",
                         {"dataset": str(tmp_path / "dsrs"), "out": str(out)})
        with pytest.warns(UserWarning, match="non-positive potential"):
            assert main(["oracle", "--config", path]) == 3
        assert "posterior mass vanished at grid time 0.0" in capsys.readouterr().err
        assert not os.path.exists(out)


TWIST_CFG = {"steps": 40, "batch": 4, "dt": 0.2, "m": 8, "reuse": 20,
             "seed": 11}


class TestConfigMistakes:
    """Config values of the wrong type or out of range end in exit 2 with
    a message, before any output is written."""

    def _run(self, tmp_path, command, cfg, capsys):
        out = tmp_path / "out"
        code = main([command, "--config",
                     write_cfg(tmp_path, "c.json", dict(cfg, out=str(out)))])
        assert not os.path.exists(out / "manifest.json")
        return code, capsys.readouterr().err

    def _twist(self, dataset, **change):
        return dict(TWIST_CFG, dataset=dataset, **change)

    def _train(self, dataset, **change):
        return {"dataset": dataset, "G": 1, "N": 2, "B": 2, "S": 2, "dt": 0.2,
                "reuse": 2, "pretrain_steps": 2, "m": 8, "seed": 0, **change}

    def _infer(self, dataset, **change):
        return {"dataset": dataset, "method": "bpf", "S": 4, "dt": 0.2,
                "indices": [0], **change}

    def test_train_twist_zero_width(self, dataset, tmp_path, capsys):
        code, err = self._run(tmp_path, "train-twist", self._twist(dataset, m=0), capsys)
        assert code == 2 and "width must be >= 1" in err

    def test_train_zero_width(self, dataset, tmp_path, capsys):
        code, err = self._run(tmp_path, "train", self._train(dataset, m=0), capsys)
        assert code == 2 and "width must be >= 1" in err

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("inf"), float("nan")])
    def test_train_twist_bad_step(self, dataset, tmp_path, capsys, dt):
        # a negative step once ended in a message about the Euler bound
        code, err = self._run(tmp_path, "train-twist", self._twist(dataset, dt=dt), capsys)
        assert code == 2 and "dt must be positive and finite" in err

    def test_train_twist_negative_steps(self, dataset, tmp_path, capsys):
        code, err = self._run(tmp_path, "train-twist", self._twist(dataset, steps=-3),
                              capsys)
        assert code == 2 and "steps and checkpoint_every must be >= 0" in err

    def test_train_twist_fractional_steps(self, dataset, tmp_path, capsys):
        code, err = self._run(tmp_path, "train-twist", self._twist(dataset, steps=2.5),
                              capsys)
        assert code == 2 and "config.steps must be of type int" in err

    @pytest.mark.parametrize("change", [{"S": 2.5}, {"S": True}, {"dt": "0.1"},
                                        {"indices": 3}, {"theta": "fast"}])
    def test_infer_wrong_type(self, dataset, tmp_path, capsys, change):
        code, err = self._run(tmp_path, "infer", self._infer(dataset, **change), capsys)
        name = next(iter(change))
        assert code == 2 and f"config.{name} must be of type" in err

    @pytest.mark.parametrize("dt", [0.0, -0.2])
    def test_infer_bad_step(self, dataset, tmp_path, capsys, dt):
        code, err = self._run(tmp_path, "infer", self._infer(dataset, dt=dt), capsys)
        assert code == 2 and "dt must be positive and finite" in err

    def test_int_accepted_for_float(self, dataset, tmp_path):
        cfg = self._infer(dataset, dt=1, out=str(tmp_path / "ok"))
        assert main(["infer", "--config", write_cfg(tmp_path, "ok.json", cfg)]) == 0

    def test_out_of_memory_is_config_error(self, dataset, tmp_path, capsys, monkeypatch):
        # a step of 1e-9 asks for a grid of 1e10 points; the allocation
        # failure is simulated here rather than provoked
        from ipsmc import smc

        def no_memory(T, dt, obs_times=()):
            raise MemoryError(f"cannot allocate a grid of step {dt}")

        monkeypatch.setattr(smc, "make_grid", no_memory)
        code = main(["infer", "--config", write_cfg(
            tmp_path, "c.json", self._infer(dataset, dt=1e-9, out=str(tmp_path / "o")))])
        assert code == 2
        assert "out of memory" in capsys.readouterr().err


class TestTrainTwist:
    def test_resume_reproduces_uninterrupted_run(self, dataset, tmp_path):
        full = dict(TWIST_CFG, dataset=dataset, out=str(tmp_path / "full"),
                    checkpoint_every=20)
        fpath = write_cfg(tmp_path, "full.json", full)
        assert main(["train-twist", "--config", fpath]) == 0

        part = dict(TWIST_CFG, dataset=dataset, out=str(tmp_path / "part"),
                    checkpoint_every=20)
        ppath = write_cfg(tmp_path, "part.json", part)
        assert main(["train-twist", "--config", ppath]) == 0
        mid = str(tmp_path / "part" / "twist_step000020.npz")
        resumed = dict(TWIST_CFG, dataset=dataset,
                       out=str(tmp_path / "resumed"), checkpoint_every=20)
        rpath = write_cfg(tmp_path, "resumed.json", resumed)
        assert main(["train-twist", "--config", rpath, "--resume", mid]) == 0

        from ipsmc import twistnet as tn

        a, _, _ = tn.load_checkpoint(str(tmp_path / "full" / "twist.npz"))
        b, _, _ = tn.load_checkpoint(str(tmp_path / "resumed" / "twist.npz"))
        for k, arr in a.arrays().items():
            assert np.array_equal(arr, b.arrays()[k]), k

    def test_resume_rejects_mismatched_checkpoint(self, dataset, tmp_path):
        # a checkpoint of another loss, width, seed, batch, dt, lr, reuse
        # or mc_loss, or one train wrote (no step or generator state), ends
        # in exit 2 before any step
        first = dict(TWIST_CFG, dataset=dataset, out=str(tmp_path / "first"),
                     steps=20)
        assert main(["train-twist", "--config",
                     write_cfg(tmp_path, "first.json", first)]) == 0
        twist = str(tmp_path / "first" / "twist.npz")
        train_cfg = {"dataset": dataset, "out": str(tmp_path / "tr"), "G": 0,
                     "N": 0, "B": 2, "S": 2, "dt": 0.2, "reuse": 4,
                     "pretrain_steps": 4, "m": 8, "seed": 11}
        assert main(["train", "--config",
                     write_cfg(tmp_path, "tr.json", train_cfg)]) == 0
        cases = [({"loss": "dre"}, twist), ({"m": 16}, twist),
                 ({"seed": 12}, twist), ({"batch": 5}, twist),
                 ({"dt": 0.1}, twist), ({"lr": 0.002}, twist),
                 ({"reuse": 10}, twist), ({"mc_loss": False}, twist),
                 ({}, str(tmp_path / "tr" / "twist.npz"))]
        for k, (change, ckpt) in enumerate(cases):
            out = tmp_path / f"resumed{k}"
            cfg = dict(TWIST_CFG, dataset=dataset, out=str(out), **change)
            path = write_cfg(tmp_path, f"resumed{k}.json", cfg)
            assert main(["train-twist", "--config", path, "--resume", ckpt]) == 2
            assert not os.path.exists(out / "telemetry.csv")

    def test_resume_rejects_checkpoint_past_steps(self, dataset, tmp_path, capsys):
        # a step-20 checkpoint resumed under steps 10 would write a twist at
        # step 20 with no telemetry rows; it ends in exit 2 before any output
        first = dict(TWIST_CFG, dataset=dataset, out=str(tmp_path / "first"),
                     steps=20)
        assert main(["train-twist", "--config",
                     write_cfg(tmp_path, "first.json", first)]) == 0
        out = tmp_path / "resumed"
        cfg = dict(TWIST_CFG, dataset=dataset, out=str(out), steps=10)
        assert main(["train-twist", "--config", write_cfg(tmp_path, "r.json", cfg),
                     "--resume", str(tmp_path / "first" / "twist.npz")]) == 2
        assert "past the config's steps 10" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_coarse_step_is_config_error(self, tmp_path):
        # steps of up to 5 on a horizon of 20 break the Euler small-interval
        # bound (StepSizeError); the fix is a smaller dt, so exit 2
        gen = dict(TINY_GEN, T=20.0, out=str(tmp_path / "dslong"))
        assert main(["generate", "--config",
                     write_cfg(tmp_path, "genlong.json", gen)]) == 0
        cfg = dict(TWIST_CFG, dataset=str(tmp_path / "dslong"), dt=5.0,
                   out=str(tmp_path / "coarse"))
        assert main(["train-twist", "--config",
                     write_cfg(tmp_path, "coarse.json", cfg)]) == 2

    def test_telemetry_schema(self, dataset, tmp_path):
        cfg = dict(TWIST_CFG, dataset=dataset, out=str(tmp_path / "tw"))
        path = write_cfg(tmp_path, "tw.json", cfg)
        assert main(["train-twist", "--config", path, "--svg"]) == 0
        with open(tmp_path / "tw" / "telemetry.csv") as f:
            f.readline()
            assert f.readline().strip() == "step,loss"
        assert os.path.exists(tmp_path / "tw" / "loss.svg")

    def test_rejects_checkpoint_every_off_batch_boundary(self, dataset, tmp_path):
        out = tmp_path / "tw"
        path = write_cfg(tmp_path, "tw.json",
                         dict(TWIST_CFG, dataset=dataset, out=str(out),
                              checkpoint_every=30))
        assert main(["train-twist", "--config", path]) == 2
        assert not os.path.exists(out)

    def test_dre_loss_variant(self, dataset, tmp_path):
        cfg = dict(TWIST_CFG, dataset=dataset, out=str(tmp_path / "dre"),
                   loss="dre", steps=20)
        path = write_cfg(tmp_path, "dre.json", cfg)
        assert main(["train-twist", "--config", path]) == 0
        from ipsmc import twistnet as tn

        _, _, header = tn.load_checkpoint(str(tmp_path / "dre" / "twist.npz"))
        assert header["loss"] == "dre"


@pytest.mark.parametrize("arrays", [
    "text", np.zeros(3), {"x": np.zeros(3)},
    {"meta_json": np.frombuffer(b'{"V": 3, "m": 8}', dtype=np.uint8)}],
    ids=["text", "npy", "no-header", "no-weights"])
@pytest.mark.parametrize("command", ["infer", "train-twist"])
def test_foreign_checkpoint_rejected(dataset, tmp_path, capsys, arrays, command):
    # a file that save_checkpoint did not write ends in exit 2, named, from
    # twisted inference and from a resumed twist training alike
    ckpt = str(tmp_path / "foreign.npz")
    with open(ckpt, "wb") as f:
        if isinstance(arrays, dict):
            np.savez(f, **arrays)
        elif isinstance(arrays, str):
            f.write(b"not a checkpoint")
        else:
            np.save(f, arrays)
    out = tmp_path / "out"
    if command == "infer":
        cfg = {"dataset": dataset, "out": str(out), "method": "tsmc-kl",
               "S": 4, "dt": 0.2, "checkpoint": ckpt}
        argv = ["infer", "--config", write_cfg(tmp_path, "c.json", cfg)]
    else:
        cfg = dict(TWIST_CFG, dataset=dataset, out=str(out))
        argv = ["train-twist", "--config", write_cfg(tmp_path, "c.json", cfg),
                "--resume", ckpt]
    assert main(argv) == 2
    assert (f"{ckpt} is not an ipsmc twist checkpoint"
            in capsys.readouterr().err)
    assert not os.path.exists(out)


class TestTrain:
    def test_pretrain_only_mode(self, dataset, tmp_path):
        cfg = {"dataset": dataset, "out": str(tmp_path / "pre"), "G": 0,
               "N": 0, "B": 2, "S": 2, "dt": 0.2, "reuse": 4,
               "pretrain_steps": 8, "m": 8, "seed": 0}
        path = write_cfg(tmp_path, "pre.json", cfg)
        assert main(["train", "--config", path]) == 0
        with open(tmp_path / "pre" / "telemetry.csv") as f:
            f.readline()
            header = f.readline().strip()
            rows = [line.split(",") for line in f]
        assert header == ("global_iter,phase,step,loss,mean_ess,min_ess,"
                          "alpha0,alpha1,beta,gamma,rpe")
        assert all(r[1] == "pretrain" for r in rows)
        assert len(rows) == 8

    def test_small_train_run_outputs(self, dataset, tmp_path):
        cfg = {"dataset": dataset, "out": str(tmp_path / "tr"), "G": 2,
               "N": 2, "B": 2, "S": 4, "dt": 0.2, "reuse": 2,
               "pretrain_steps": 2, "m": 8, "seed": 1, "theta_init": 0.25}
        path = write_cfg(tmp_path, "tr.json", cfg)
        assert main(["train", "--config", path, "--svg"]) == 0
        assert os.path.exists(tmp_path / "tr" / "theta.json")
        assert os.path.exists(tmp_path / "tr" / "checkpoint_0002.npz")
        assert os.path.exists(tmp_path / "tr" / "rpe.svg")
        with open(tmp_path / "tr" / "theta.json") as f:
            theta = json.load(f)
        assert all(theta[k] > 0 for k in ("alpha0", "alpha1", "beta", "gamma"))

    def test_telemetry_rpe_matches_params(self, dataset, tmp_path):
        # each telemetry row's rpe is the relative error of that row's rates
        # against the dataset's true rates, and theta.json's of the final ones
        cfg = {"dataset": dataset, "out": str(tmp_path / "tr"), "G": 2,
               "N": 2, "B": 2, "S": 4, "dt": 0.2, "reuse": 2,
               "pretrain_steps": 2, "m": 8, "seed": 3}
        assert main(["train", "--config", write_cfg(tmp_path, "tr.json", cfg)]) == 0
        names = ("alpha0", "alpha1", "beta", "gamma")
        with open(os.path.join(dataset, "params.json")) as f:
            params = json.load(f)
        truth = np.array([params[k] for k in names])
        with open(tmp_path / "tr" / "telemetry.csv") as f:
            f.readline()
            header = f.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in f]
        assert [r["phase"] for r in rows] == ["pretrain"] * 2 + ["sleep", "sleep",
                                                                 "wake", "wake"] * 2
        for r in rows:
            theta = [float(r[k]) for k in names]
            assert float(r["rpe"]) == relative_parameter_error(theta, truth)
        with open(tmp_path / "tr" / "theta.json") as f:
            final = json.load(f)
        assert final["rpe"] == relative_parameter_error(
            [final[k] for k in names], truth)
        assert [final[k] for k in names] == [float(rows[-1][k]) for k in names]

    def test_zero_true_rate_reports_nan_error(self, tmp_path):
        # the relative error is undefined with a true gamma of 0: the run
        # completes and reports rpe as NaN
        gen = dict(TINY_GEN, params=dict(TINY_GEN["params"], gamma=0.0),
                   out=str(tmp_path / "ds"))
        assert main(["generate", "--config",
                     write_cfg(tmp_path, "gen.json", gen)]) == 0
        cfg = {"dataset": str(tmp_path / "ds"), "out": str(tmp_path / "tr"),
               "G": 1, "N": 2, "B": 2, "S": 4, "dt": 0.2, "reuse": 2,
               "pretrain_steps": 2, "m": 8, "seed": 4}
        path = write_cfg(tmp_path, "tr.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", path, "--svg"]) == 0
        with open(tmp_path / "tr" / "theta.json") as f:
            theta = json.load(f)
        assert math.isnan(theta["rpe"])
        with open(tmp_path / "tr" / "telemetry.csv") as f:
            f.readline()
            f.readline()
            assert all(line.strip().endswith(",nan") for line in f)

    @pytest.mark.parametrize("theta_init", [0.0, -0.2, float("inf"), float("nan")])
    def test_rejects_bad_theta_init(self, tmp_path, theta_init):
        # refused before the dataset loads: a missing one would exit 4
        out = tmp_path / "tr"
        cfg = {"dataset": str(tmp_path / "missing"), "out": str(out),
               "theta_init": theta_init}
        assert main(["train", "--config", write_cfg(tmp_path, "tr.json", cfg)]) == 2
        assert not os.path.exists(out)

    def test_wake_collapse_exit_codes(self, dataset, tmp_path, monkeypatch):
        # a wake batch with no surviving tSMC run, and a skip rate above
        # 10% over the run, both end in exit code 3
        from ipsmc import wakesleep

        real = wakesleep._wake_sample
        calls = []

        def every_other(*args):
            calls.append(None)
            return real(*args) if len(calls) % 2 else None

        cfg = {"dataset": dataset, "G": 1, "N": 2, "B": 2, "S": 4, "dt": 0.2,
               "reuse": 2, "pretrain_steps": 0, "m": 8, "seed": 1}
        for name, sampler in (("none", lambda *a: None),
                              ("half", every_other)):
            monkeypatch.setattr(wakesleep, "_wake_sample", sampler)
            path = write_cfg(tmp_path, f"{name}.json",
                             dict(cfg, out=str(tmp_path / name)))
            assert main(["train", "--config", path]) == 3
        assert len(calls) == 2


class TestInfer:
    def test_methods_and_metrics(self, dataset, tmp_path):
        tw = dict(TWIST_CFG, dataset=dataset, out=str(tmp_path / "tw"))
        assert main(["train-twist", "--config",
                     write_cfg(tmp_path, "tw.json", tw)]) == 0
        for method, extra in (("bpf", {}),
                              ("tsmc-kl",
                               {"checkpoint": str(tmp_path / "tw" / "twist.npz")})):
            cfg = {"dataset": dataset, "out": str(tmp_path / f"inf_{method}"),
                   "split": "test", "method": method, "S": 8, "dt": 0.2,
                   "seed": 3, **extra}
            path = write_cfg(tmp_path, f"inf_{method}.json", cfg)
            assert main(["infer", "--config", path]) == 0
            out = tmp_path / f"inf_{method}"
            with open(out / "metrics.csv") as f:
                f.readline()
                assert f.readline().strip() == "index,ce,brier,logz"
                rows = [line.strip().split(",") for line in f]
            assert len(rows) == 3
            assert os.path.exists(out / "0" / "ess_history.csv")
            assert os.path.exists(out / "0" / "logz.csv")

    def test_twisted_method_requires_checkpoint(self, dataset, tmp_path):
        cfg = {"dataset": dataset, "out": str(tmp_path / "x"),
               "method": "tsmc-kl", "S": 4, "dt": 0.2}
        assert main(["infer", "--config",
                     write_cfg(tmp_path, "x.json", cfg)]) == 2

    def test_checkpoint_loss_mismatch_rejected(self, dataset, tmp_path):
        tw = dict(TWIST_CFG, dataset=dataset, out=str(tmp_path / "twkl"))
        assert main(["train-twist", "--config",
                     write_cfg(tmp_path, "twkl.json", tw)]) == 0
        cfg = {"dataset": dataset, "out": str(tmp_path / "y"),
               "method": "tsmc-dre", "S": 4, "dt": 0.2,
               "checkpoint": str(tmp_path / "twkl" / "twist.npz")}
        assert main(["infer", "--config",
                     write_cfg(tmp_path, "y.json", cfg)]) == 2

    def test_store_particles_paths(self, dataset, tmp_path):
        cfg = {"dataset": dataset, "out": str(tmp_path / "parts"),
               "method": "bpf", "S": 4, "dt": 0.25, "seed": 0,
               "indices": [0], "store_particles": True}
        assert main(["infer", "--config",
                     write_cfg(tmp_path, "parts.json", cfg)]) == 0
        pdir = tmp_path / "parts" / "0" / "particles"
        assert len(os.listdir(pdir)) == 4
        from ipsmc.ips import read_path

        with open(pdir / "0.path") as f:
            path, V = read_path(f)
        path.validate()
        assert V == 3

    def test_collapse_exit_code(self, tmp_path):
        # noiseless unmasked observations and a single particle: a mismatch
        # zeroes every weight
        gen = dict(TINY_GEN, out=str(tmp_path / "dsn"), delta=0.0, p_mask=0.0,
                   n_train=1, n_test=1, seed=3)
        assert main(["generate", "--config",
                     write_cfg(tmp_path, "genn.json", gen)]) == 0
        cfg = {"dataset": str(tmp_path / "dsn"), "out": str(tmp_path / "cc"),
               "method": "bpf", "S": 1, "dt": 0.2, "seed": 0}
        code = main(["infer", "--config", write_cfg(tmp_path, "cc.json", cfg)])
        assert code == 3

    @pytest.mark.parametrize("extra", [{"indices": [5]}, {"indices": [-1]},
                                       {"indices": [0, 3]},
                                       {"split": "validation"}])
    def test_rejects_bad_trajectory_choice(self, dataset, tmp_path, extra):
        # the test split holds trajectories 0, 1 and 2
        out = tmp_path / "bad"
        cfg = {"dataset": dataset, "out": str(out), "method": "bpf", "S": 4,
               "dt": 0.2, **extra}
        code = main(["infer", "--config", write_cfg(tmp_path, "bad.json", cfg)])
        assert code == 2
        assert not os.path.exists(out)

    def test_nonfinite_theta_rejected(self, dataset, tmp_path):
        # a NaN fails the rates' own check; a string, null or bool is not a
        # number, as for every float config field
        for bad in (float("nan"), "a", None, True):
            out = tmp_path / "bad"
            cfg = {"dataset": dataset, "out": str(out), "method": "bpf",
                   "S": 4, "dt": 0.2, "theta": [bad, 1.0, 0.4, 0.05]}
            code = main(["infer", "--config", write_cfg(tmp_path, "bad.json", cfg)])
            assert code == 2, bad
            assert not os.path.exists(out)

    @pytest.mark.parametrize("epsilon", [1.5, -0.5, float("nan")])
    def test_rejects_bad_epsilon(self, tmp_path, epsilon):
        # refused before the dataset loads: a missing one would exit 4
        out = tmp_path / "eps"
        cfg = {"dataset": str(tmp_path / "missing"), "out": str(out),
               "method": "bpf", "epsilon": epsilon}
        assert main(["infer", "--config", write_cfg(tmp_path, "eps.json", cfg)]) == 2
        assert not os.path.exists(out)

    def test_theta_of_wrong_length_rejected(self, dataset, tmp_path):
        cfg = {"dataset": dataset, "out": str(tmp_path / "short"),
               "method": "bpf", "S": 4, "dt": 0.2, "theta": [0.1, 1.0]}
        code = main(["infer", "--config", write_cfg(tmp_path, "short.json", cfg)])
        assert code == 2
        assert not os.path.exists(tmp_path / "short")

    def test_io_failure_exit_code(self, dataset, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        cfg = {"dataset": dataset, "out": str(blocker / "sub"),
               "method": "bpf", "S": 2, "dt": 0.25}
        code = main(["infer", "--config", write_cfg(tmp_path, "io.json", cfg)])
        assert code == 4


class TestEvaluate:
    def test_aggregates_mean_and_two_se(self, dataset, tmp_path):
        cfg = {"dataset": dataset, "out": str(tmp_path / "inf"),
               "method": "bpf", "S": 8, "dt": 0.2, "seed": 3}
        assert main(["infer", "--config",
                     write_cfg(tmp_path, "inf.json", cfg)]) == 0
        ev = {"inputs": [str(tmp_path / "inf")], "out": str(tmp_path / "ev")}
        assert main(["evaluate", "--config",
                     write_cfg(tmp_path, "ev.json", ev)]) == 0
        ces = []
        with open(tmp_path / "inf" / "metrics.csv") as f:
            f.readline()
            f.readline()
            for line in f:
                ces.append(float(line.split(",")[1]))
        ces = np.array(ces)
        with open(tmp_path / "ev" / "aggregate.csv") as f:
            f.readline()
            f.readline()
            row = f.readline().strip().split(",")
        assert float(row[2]) == pytest.approx(ces.mean())
        assert float(row[3]) == pytest.approx(2 * ces.std(ddof=1) / np.sqrt(len(ces)))

    def test_empty_inputs_rejected(self, tmp_path):
        ev = {"inputs": [], "out": str(tmp_path / "ev")}
        assert main(["evaluate", "--config",
                     write_cfg(tmp_path, "ev.json", ev)]) == 2

    @pytest.mark.parametrize("inputs", [[1], [None], [["inf"]]])
    def test_non_string_inputs_rejected(self, tmp_path, capsys, inputs):
        ev = {"inputs": inputs, "out": str(tmp_path / "ev")}
        assert main(["evaluate", "--config",
                     write_cfg(tmp_path, "ev.json", ev)]) == 2
        assert "inputs must be directory names" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "ev")
