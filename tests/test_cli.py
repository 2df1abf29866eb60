import atexit
import contextlib
import ctypes
import dataclasses
import errno
import gc
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from lexfit import (
    PRESETS,
    ConstraintSet,
    EmbeddingStore,
    Margins,
    SpecializeConfig,
    bibless_classify,
    bless_directionality,
    eval_similarity,
    hyperlex_eval,
    load_embeddings,
    load_pairs,
    load_relation_dataset,
    load_similarity_dataset,
    save_embeddings,
    specialize,
    wbless_classify,
)
import lexfit.cli
from lexfit import embeddings
from lexfit.cli import main
from lexfit.constraints import PAIR_SETS
from lexfit.sampling import NEGATIVE_POLICIES


@pytest.fixture
def workspace(tmp_path):
    """Small on-disk world: embeddings plus syn/ant/hyper pair files."""
    rng = np.random.default_rng(0)
    words = ["a1", "a2", "a3", "hypa", "b1", "b2", "hypb", "c1", "c2", "d1"]
    groups = {("a1", "a2", "a3", "hypa"): None, ("b1", "b2", "hypb"): None}
    vectors = {w: rng.standard_normal(6) for w in words}
    for group in groups:
        base = rng.standard_normal(6)
        for w in group:
            vectors[w] = base + 0.4 * rng.standard_normal(6)
    store = EmbeddingStore(words, [vectors[w] for w in words])
    emb = tmp_path / "toy.vec"
    save_embeddings(store, str(emb), "glove-text")
    syn = tmp_path / "syn.tsv"
    syn.write_text("a1 a2\na1 a3\na2 a3\nb1 b2\n")
    ant = tmp_path / "ant.tsv"
    ant.write_text("a1 b1\na2 b2\n")
    hyper = tmp_path / "hyper.tsv"
    hyper.write_text("a1 hypa\na2 hypa\nb1 hypb\n")
    return tmp_path, emb, syn, ant, hyper


TRAINING = ("--epochs", "3", "--batch-size", "4", "--seed", "7")


def specialize_args(ws, out, extra=(), training=TRAINING):
    _, emb, syn, ant, hyper = ws
    return [
        "specialize",
        "--embeddings", str(emb),
        "--format", "glove-text",
        "--method", "hierarchy-fitting",
        "--syn", str(syn),
        "--ant", str(ant),
        "--hyper", str(hyper),
        "--out", str(out),
        *training,
        *extra,
    ]


def with_config(key, value):
    """A manifest edit that sets one value of its ``config``."""
    return lambda manifest: {**manifest, "config": {**manifest["config"], key: value}}


class TestSpecializeCommand:
    def test_writes_outputs(self, workspace):
        tmp_path = workspace[0]
        out = tmp_path / "out.vec"
        assert main(specialize_args(workspace, out)) == 0
        assert out.exists()
        assert (tmp_path / "out.vec.log").exists()
        assert (tmp_path / "out.vec.manifest").exists()
        manifest = json.loads((tmp_path / "out.vec.manifest").read_text())
        assert manifest["seed"] == 7
        assert manifest["method"] == "hierarchy_fitting"
        assert any(entry["role"] == "syn" for entry in manifest["inputs"])

    def test_byte_identical_reruns(self, workspace):
        tmp_path = workspace[0]
        out1, out2 = tmp_path / "r1.vec", tmp_path / "r2.vec"
        assert main(specialize_args(workspace, out1)) == 0
        assert main(specialize_args(workspace, out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1.vec.log").read_bytes() == (tmp_path / "r2.vec.log").read_bytes()

    def test_replay_manifest_reproduces(self, workspace):
        tmp_path = workspace[0]
        out = tmp_path / "out.vec"
        assert main(specialize_args(workspace, out)) == 0
        replay_out = tmp_path / "replayed.vec"
        code = main([
            "specialize",
            "--replay", str(tmp_path / "out.vec.manifest"),
            "--out", str(replay_out),
        ])
        assert code == 0
        assert replay_out.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("method, roles", [
        ("retrofitting", ("--syn", "--hyper")),
        ("hierarchy-fitting", ("--syn", "--hyper", "--ant")),
    ])
    def test_replay_keeps_every_role_of_a_shared_path(self, workspace, method, roles):
        tmp_path, emb, syn, ant, _ = workspace
        out = tmp_path / "out.vec"
        argv = ["specialize", "--embeddings", str(emb), "--format", "glove-text",
                "--method", method, "--out", str(out), *TRAINING]
        for flag in roles:
            argv += [flag, str(ant if flag == "--ant" else syn)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "out.vec.manifest").read_text())
        assert sorted(e["role"] for e in manifest["inputs"] if e["path"] == str(syn)) == [
            "hyper", "syn"
        ]
        replay_out = tmp_path / "replayed.vec"
        code = main(["specialize", "--replay", str(tmp_path / "out.vec.manifest"),
                     "--out", str(replay_out)])
        assert code == 0
        assert replay_out.read_bytes() == out.read_bytes()

    def test_replay_reads_the_path_keyed_manifest(self, workspace):
        # manifests written before inputs became a list key them by path
        tmp_path = workspace[0]
        out = tmp_path / "out.vec"
        assert main(specialize_args(workspace, out)) == 0
        manifest_path = tmp_path / "out.vec.manifest"
        manifest = json.loads(manifest_path.read_text())
        old = {}
        for entry in manifest["inputs"]:
            meta = {"role": entry["role"], "sha256": entry["sha256"]}
            if entry["role"] != "embeddings":
                meta["order"] = entry["order"]
            old[entry["path"]] = meta
        manifest["inputs"] = old
        manifest_path.write_text(json.dumps(manifest))
        replay_out = tmp_path / "replayed.vec"
        code = main(["specialize", "--replay", str(manifest_path), "--out", str(replay_out)])
        assert code == 0
        assert replay_out.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("edit, problem", [
        (lambda m: {**m, "inputs": [e for e in m["inputs"] if e["role"] != "embeddings"]},
         "inputs has no 'embeddings' entry"),
        (lambda m: {**m, "inputs": [{k: v for k, v in e.items() if k != "order"}
                                    for e in m["inputs"]]},
         "inputs[0]: field 'order' is missing"),
        (lambda m: [m], "expected a JSON object, got list"),
        (lambda m: {k: v for k, v in m.items() if k != "method"}, "field 'method' is missing"),
        (with_config("epochs", "3"), "field 'config.epochs' is not of type int"),
        (with_config("epochs", 2.5), "field 'config.epochs' is not of type int"),
        (with_config("epochs", None), "field 'config.epochs' is not of type int"),
        (with_config("m_syn", "x"), "field 'config.m_syn' is not of type float"),
        (with_config("m_syn", 10 ** 400), "field 'config.m_syn' is beyond float range"),
        (lambda m: {**m, "inputs": [*m["inputs"], {**m["inputs"][0], "order": 1}]},
         "inputs has 2 'embeddings' entries"),
        (lambda m: {**m, "inputs": [m["inputs"][0], {**m["inputs"][1], "role": "meronym"}]},
         "inputs[1] has unknown role 'meronym'"),
        (lambda m: {**m, "inputs": [{**m["inputs"][0], "size": 3}]},
         "inputs[0]: field 'size' is unknown"),
        # values a replay cannot honour
        (with_config("seed", 3), "field 'seed' is 7, but field 'config.seed' is 3"),
        (with_config("adagrad_epsilon", 0.5),
         "field 'config.adagrad_epsilon' is 0.5, but this version trains only at 1e-08"),
    ], ids=["no-embeddings", "no-order", "json-list", "no-method",
            "epochs-str", "epochs-float", "epochs-null", "m_syn-str", "m_syn-beyond-float",
            "two-embeddings", "unknown-role", "unknown-field", "seed-differs", "adagrad-epsilon"])
    def test_replay_refuses_a_malformed_manifest(self, workspace, capsys, edit, problem):
        tmp_path = workspace[0]
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        manifest_path = tmp_path / "out.vec.manifest"
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
        capsys.readouterr()
        replay_out = tmp_path / "replayed.vec"
        code = main(["specialize", "--replay", str(manifest_path), "--out", str(replay_out)])
        assert code == 2
        assert capsys.readouterr().err == f"lexfit: error: {manifest_path}: {problem}\n"
        assert not replay_out.exists()

    def test_replay_ignores_the_retired_m_contrastive_key(self, workspace):
        # manifests written before the dead option was deleted still carry it
        tmp_path = workspace[0]
        out = tmp_path / "out.vec"
        assert main(specialize_args(workspace, out)) == 0
        manifest_path = tmp_path / "out.vec.manifest"
        manifest = json.loads(manifest_path.read_text())
        assert "m_contrastive" not in manifest["config"]
        manifest["config"]["m_contrastive"] = 0.1
        manifest_path.write_text(json.dumps(manifest))
        replay_out = tmp_path / "replayed.vec"
        code = main(["specialize", "--replay", str(manifest_path), "--out", str(replay_out)])
        assert code == 0
        assert replay_out.read_bytes() == out.read_bytes()

    def test_replay_takes_the_top_level_seed_when_config_has_none(self, workspace):
        tmp_path = workspace[0]
        out = tmp_path / "out.vec"
        assert main(specialize_args(workspace, out, training=TRAINING[:-1] + ("3",))) == 0
        assert main(specialize_args(workspace, tmp_path / "seed7.vec")) == 0
        assert out.read_bytes() != (tmp_path / "seed7.vec").read_bytes()
        manifest_path = tmp_path / "out.vec.manifest"
        manifest = json.loads(manifest_path.read_text())
        del manifest["config"]["seed"]
        manifest_path.write_text(json.dumps(manifest))
        replay_out = tmp_path / "replayed.vec"
        assert main(["specialize", "--replay", str(manifest_path), "--out", str(replay_out)]) == 0
        assert replay_out.read_bytes() == out.read_bytes()
        replayed = json.loads((tmp_path / "replayed.vec.manifest").read_text())
        assert replayed["seed"] == replayed["config"]["seed"] == 3

    def test_m_contrastive_is_not_an_option(self, workspace, capsys):
        tmp_path = workspace[0]
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("m_contrastive=0.5\n")
        args = specialize_args(workspace, tmp_path / "x.vec", ["--config", str(cfg)])
        assert main(args) == 2
        assert "unknown option 'm_contrastive'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(specialize_args(workspace, tmp_path / "x.vec", ["--m-contrastive", "0.5"]))
        assert exc.value.code == 2

    def test_missing_hyper_is_usage_error(self, workspace, capsys):
        _, emb, syn, ant, _ = workspace
        code = main([
            "specialize",
            "--embeddings", str(emb),
            "--format", "glove-text",
            "--method", "hierarchy-fitting",
            "--syn", str(syn),
            "--ant", str(ant),
            "--out", str(workspace[0] / "x.vec"),
        ])
        assert code == 2
        assert "hypernym" in capsys.readouterr().err

    def test_no_pair_files_is_usage_error(self, workspace):
        _, emb, *_ = workspace
        code = main([
            "specialize", "--embeddings", str(emb), "--format", "glove-text",
            "--method", "retrofitting", "--out", str(workspace[0] / "x.vec"),
        ])
        assert code == 2

    def test_unreadable_embeddings_is_runtime_error(self, workspace):
        code = main(specialize_args(
            (workspace[0], workspace[0] / "missing.vec", *workspace[2:]),
            workspace[0] / "x.vec",
        ))
        assert code == 1

    def test_config_file_overridden_by_flags(self, workspace):
        tmp_path = workspace[0]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=50\nlearning-rate=0.01\n")
        out = tmp_path / "cfg.vec"
        args = specialize_args(workspace, out, extra=["--config", str(cfg)])
        assert main(args) == 0  # --epochs 3 wins over epochs=50
        manifest = json.loads((tmp_path / "cfg.vec.manifest").read_text())
        assert manifest["config"]["epochs"] == 3
        assert manifest["config"]["learning_rate"] == 0.01

    def test_unknown_config_key(self, workspace, capsys):
        tmp_path = workspace[0]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("turbo=yes\n")
        args = specialize_args(workspace, tmp_path / "x.vec", extra=["--config", str(cfg)])
        assert main(args) == 2

    @pytest.mark.parametrize("line, problem", [
        ("epochs=1.5", "epochs expects int, got '1.5'"),
        ("m_syn=wide", "m_syn expects float, got 'wide'"),
        ("epochs 3", "expected key=value"),
    ])
    def test_config_value_that_fails_its_cast_is_located(self, workspace, capsys, line,
                                                         problem):
        tmp_path = workspace[0]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# options\n{line}\n")
        args = specialize_args(workspace, tmp_path / "x.vec", extra=["--config", str(cfg)])
        assert main(args) == 2
        assert capsys.readouterr().err == f"lexfit: error: {cfg}:2: {problem}\n"

    @pytest.mark.parametrize("flag", ["--format", "--method", "--out"])
    def test_missing_option_is_usage_error(self, workspace, capsys, flag):
        tmp_path = workspace[0]
        argv = specialize_args(workspace, tmp_path / "x.vec")
        at = argv.index(flag)
        assert main(argv[:at] + argv[at + 2:]) == 2
        assert capsys.readouterr().err == f"lexfit: error: {flag} is required\n"
        assert not list(tmp_path.glob("x.vec*"))

    def test_unknown_method_in_config_is_usage_error(self, workspace, capsys):
        tmp_path = workspace[0]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=retrofit-plus\n")
        argv = specialize_args(workspace, tmp_path / "x.vec")
        at = argv.index("--method")
        assert main(argv[:at] + argv[at + 2:] + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "lexfit: error: unknown method 'retrofit-plus'\n"

    @pytest.mark.parametrize("source", ["config", "replay"])
    def test_unknown_format_is_usage_error(self, workspace, capsys, source):
        tmp_path = workspace[0]
        out = tmp_path / "x.vec"
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("format=word2vec-binary\n")
            args = [arg for arg in specialize_args(workspace, out) if arg != "--format"
                    and arg != "glove-text"] + ["--config", str(cfg)]
        else:
            assert main(specialize_args(workspace, tmp_path / "ref.vec")) == 0
            manifest = json.loads((tmp_path / "ref.vec.manifest").read_text())
            manifest_path = tmp_path / "edited.manifest"
            manifest_path.write_text(json.dumps({**manifest, "format": "word2vec-binary"}))
            args = ["specialize", "--replay", str(manifest_path), "--out", str(out)]
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == "lexfit: error: unknown format 'word2vec-binary'\n"
        assert not list(tmp_path.glob("x.vec*"))

    def test_retrofitting_accepts_hyper_only(self, workspace):
        tmp_path, emb, _, _, hyper = workspace
        code = main([
            "specialize", "--embeddings", str(emb), "--format", "glove-text",
            "--method", "retrofitting", "--hyper", str(hyper),
            "--out", str(tmp_path / "rf.vec"),
        ])
        assert code == 0

    def test_bad_negative_policy_is_usage_error(self, workspace, capsys):
        tmp_path = workspace[0]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("negative_policy=closest_plus_randm\n")
        args = specialize_args(workspace, tmp_path / "x.vec", extra=["--config", str(cfg)])
        assert main(args) == 2
        assert "negative_policy" in capsys.readouterr().err
        assert not (tmp_path / "x.vec").exists()
        args = specialize_args(workspace, tmp_path / "x.vec", extra=["--negative-policy", "zz"])
        assert main(args) == 2

    def test_negative_margin_is_usage_error(self, workspace, capsys):
        args = specialize_args(workspace, workspace[0] / "x.vec", extra=["--m-syn", "-1"])
        assert main(args) == 2
        assert "m_syn" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_margin_is_usage_error(self, workspace, capsys, value):
        out = workspace[0] / "x.vec"
        args = specialize_args(workspace, out, extra=["--m-syn", value])
        assert main(args) == 2
        assert "margin m_syn must be finite and >= 0" in capsys.readouterr().err
        assert list(workspace[0].glob("x.vec*")) == []

    @pytest.mark.parametrize("flag, value", [
        ("--retrofit-alpha", "-1"),
        ("--retrofit-alpha", "nan"),
        ("--learning-rate", "nan"),
    ])
    def test_non_finite_or_negative_rate_is_usage_error(self, workspace, capsys, flag, value):
        _, emb, syn, _, _ = workspace
        out = workspace[0] / "x.vec"
        code = main([
            "specialize", "--embeddings", str(emb), "--format", "glove-text",
            "--method", "retrofitting", "--syn", str(syn), "--out", str(out), flag, value,
        ])
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["retrofitting", "counterfitting", "hierarchy-fitting"])
    def test_negative_seed_is_usage_error(self, workspace, capsys, method):
        tmp_path, emb, syn, ant, hyper = workspace
        out = tmp_path / "x.vec"
        # an embeddings path that does not exist: the seed is refused before any input is read
        code = main([
            "specialize", "--embeddings", str(tmp_path / "missing.vec"), "--format", "glove-text",
            "--method", method, "--syn", str(syn), "--ant", str(ant), "--hyper", str(hyper),
            "--out", str(out), "--seed", "-1",
        ])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.glob("x.vec*")) == []

    def test_non_finite_gradient_is_runtime_error(self, workspace, capsys):
        # the first update moves rows to ~1e308; the next gradients overflow
        args = specialize_args(
            workspace, workspace[0] / "x.vec", extra=["--learning-rate", "1e308"]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("lexfit: error: non-finite gradient at row ")
        assert "Traceback" not in err

    def test_margin_flags_overlay_the_preset_margins(self, workspace, capsys):
        tmp_path, emb, syn, ant, _ = workspace
        argv = ["specialize", "--embeddings", str(emb), "--format", "glove-text",
                "--method", "counterfitting", "--syn", str(syn), "--ant", str(ant),
                "--epochs", "1"]
        assert main([*argv, "--out", str(tmp_path / "d.vec")]) == 0
        assert main([*argv, "--out", str(tmp_path / "f.vec"), "--m-ant", "0.5"]) == 0
        recorded = [json.loads((tmp_path / f"{name}.vec.manifest").read_text())["config"]
                    for name in ("d", "f")]
        assert [(c["m_syn"], c["m_ant"], c["m_hyp"]) for c in recorded] == [
            (0.0, 1.0, Margins.m_hyp), (0.0, 0.5, Margins.m_hyp)
        ]
        with pytest.raises(SystemExit):
            main(["specialize", "--help"])
        assert "default 0.9; counterfitting 0.0" in capsys.readouterr().out

    def test_replay_refuses_edited_input(self, workspace, capsys):
        tmp_path, _, syn, _, _ = workspace
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        with open(syn, "a") as fh:
            fh.write("c1 c2\n")
        replay_out = tmp_path / "replayed.vec"
        code = main([
            "specialize", "--replay", str(tmp_path / "out.vec.manifest"),
            "--out", str(replay_out),
        ])
        assert code == 1
        assert str(syn) in capsys.readouterr().err
        assert not replay_out.exists()
        assert not (tmp_path / "replayed.vec.manifest").exists()

    def test_replay_checks_digest_before_parsing(self, workspace, capsys):
        tmp_path, _, syn, _, _ = workspace
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        with open(syn, "a") as fh:
            fh.write("one two three\n")
        code = main([
            "specialize", "--replay", str(tmp_path / "out.vec.manifest"),
            "--out", str(tmp_path / "replayed.vec"),
        ])
        assert code == 1
        assert f"{syn}: sha256 differs from the replayed manifest" in capsys.readouterr().err

    def test_replay_checks_the_digest_of_the_embeddings_it_loads(self, workspace, capsys):
        tmp_path, emb, _, _, _ = workspace
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        with open(emb, "a") as fh:
            fh.write("e1 1 2 3 4 5 6\n")
        code = main([
            "specialize", "--replay", str(tmp_path / "out.vec.manifest"),
            "--out", str(tmp_path / "replayed.vec"),
        ])
        assert code == 1
        assert f"{emb}: sha256 differs from the replayed manifest" in capsys.readouterr().err
        assert not (tmp_path / "replayed.vec").exists()

    def test_replay_does_not_check_inputs_given_as_flags(self, workspace):
        tmp_path, _, syn, _, _ = workspace
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        with open(syn, "a") as fh:
            fh.write("c1 c2\n")
        code = main([
            "specialize", "--replay", str(tmp_path / "out.vec.manifest"),
            "--syn", str(syn), "--out", str(tmp_path / "replayed.vec"),
        ])
        assert code == 0

    def test_replay_refuses_a_file_changed_after_its_check(self, workspace, monkeypatch,
                                                           capsys):
        # the recorded digest is compared with the one of the bytes the load parsed
        tmp_path, _, syn, _, _ = workspace
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        check = lexfit.cli._sha256

        def check_then_edit(path):
            digest = check(path)
            with open(path, "a") as fh:
                fh.write("c1 c2\n")
            return digest

        monkeypatch.setattr(lexfit.cli, "_sha256", check_then_edit)
        code = main(["specialize", "--replay", str(tmp_path / "out.vec.manifest"),
                     "--out", str(tmp_path / "replayed.vec")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"lexfit: error: {syn}: sha256 differs from the replayed manifest\n")
        assert not (tmp_path / "replayed.vec").exists()

    def test_manifest_records_the_bytes_each_load_parsed(self, workspace, monkeypatch):
        tmp_path, _, *pair_files = workspace
        parsed = [hashlib.sha256(path.read_bytes()).hexdigest() for path in pair_files]
        load = lexfit.cli.load_pairs

        def load_then_edit(constraints, path, relation, store):
            report = load(constraints, path, relation, store)
            with open(path, "a") as fh:  # a change after the load is not what it read
                fh.write("c1 c2\n")
            return report

        monkeypatch.setattr(lexfit.cli, "load_pairs", load_then_edit)
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        manifest = json.loads((tmp_path / "out.vec.manifest").read_text())
        assert [e["sha256"] for e in manifest["inputs"] if e["role"] != "embeddings"] == parsed

    def test_a_run_reads_each_pair_file_once_and_a_replay_twice(self, workspace, monkeypatch):
        tmp_path, _, *pair_files = workspace
        opened = []
        real_open, real_init = open, embeddings._Sha256Reader.__init__

        def opening(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        def hashing(self, path):
            opened.append(os.fspath(path))
            real_init(self, path)

        monkeypatch.setattr("builtins.open", opening)
        monkeypatch.setattr(embeddings._Sha256Reader, "__init__", hashing)
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        assert [opened.count(str(path)) for path in pair_files] == [1, 1, 1]
        del opened[:]
        assert main(["specialize", "--replay", str(tmp_path / "out.vec.manifest"),
                     "--out", str(tmp_path / "replayed.vec")]) == 0
        assert [opened.count(str(path)) for path in pair_files] == [2, 2, 2]

    def test_a_failed_publish_keeps_the_last_run(self, workspace, capsys):
        # outputs are staged beside --out, then published .log, vectors, .manifest
        tmp_path = workspace[0]
        out = tmp_path / "out.vec"
        argv = specialize_args(workspace, out)
        method = argv.index("--method") + 1
        assert main([*argv[:method], "attract-repel", *argv[method + 1:]]) == 0
        kept = out.read_bytes(), (tmp_path / "out.vec.manifest").read_bytes()
        (tmp_path / "out.vec.log").unlink()
        (tmp_path / "out.vec.log").mkdir()
        capsys.readouterr()
        counterfitting = [*argv[:method], "counterfitting", *argv[method + 1:]]
        assert main(counterfitting) == 1
        assert "out.vec.log" in capsys.readouterr().err
        assert (out.read_bytes(), (tmp_path / "out.vec.manifest").read_bytes()) == kept
        assert not list(tmp_path.glob("*.tmp"))
        (tmp_path / "out.vec.log").rmdir()
        assert main(counterfitting) == 0
        assert out.read_bytes() != kept[0] and not list(tmp_path.glob("*.tmp"))
        manifest = json.loads((tmp_path / "out.vec.manifest").read_text())
        assert manifest["method"] == "counterfitting"


def _option_values():
    """A valid non-default value for every SpecializeConfig and Margins option."""
    # the nested margins are set through their own fields
    fields = [
        f for cls in (SpecializeConfig, Margins) for f in dataclasses.fields(cls)
        if f.init and f.default is not dataclasses.MISSING and f.name != "margins"
    ]
    assert {f.name for f in fields} >= {"epochs", "negative_policy", "m_syn", "ad_weight"}
    values = {}
    for f in fields:
        if isinstance(f.default, str):
            values[f.name] = next(p for p in NEGATIVE_POLICIES if p != f.default)
        else:
            values[f.name] = f.default + 1 if isinstance(f.default, int) else f.default * 2
    return values


# recorded in every manifest, but fixed: neither a flag nor a config key
FIXED = {"adagrad_epsilon": SpecializeConfig.adagrad_epsilon}


class TestOptionTable:
    def test_every_option_is_a_flag(self, workspace):
        tmp_path = workspace[0]
        values = _option_values()
        flags = [
            item for name, value in values.items()
            for item in (f"--{name.replace('_', '-')}", str(value))
        ]
        assert main(specialize_args(workspace, tmp_path / "f.vec", flags, training=())) == 0
        manifest = json.loads((tmp_path / "f.vec.manifest").read_text())
        assert manifest["config"] == {**values, **FIXED}

    def test_every_option_is_a_config_key(self, workspace):
        tmp_path = workspace[0]
        values = _option_values()
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{name}={value}\n" for name, value in values.items()))
        args = specialize_args(workspace, tmp_path / "c.vec", ["--config", str(cfg)], training=())
        assert main(args) == 0
        manifest = json.loads((tmp_path / "c.vec.manifest").read_text())
        assert manifest["config"] == {**values, **FIXED}

    def test_fixed_field_is_not_an_option(self, workspace, capsys):
        tmp_path = workspace[0]
        cfg = tmp_path / "eps.cfg"
        cfg.write_text("adagrad_epsilon=1e-6\n")
        args = specialize_args(workspace, tmp_path / "e.vec", ["--config", str(cfg)])
        assert main(args) == 2
        assert "unknown option 'adagrad_epsilon'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(specialize_args(workspace, tmp_path / "e.vec", ["--adagrad-epsilon", "1e-6"]))


@pytest.mark.parametrize("preset", PRESETS)
def test_cli_and_specialize_require_the_same_relations(workspace, capsys, preset):
    tmp_path, emb, *files = workspace
    paths = dict(zip(("syn", "ant", "hyper"), files))
    for k in range(4):
        for given in itertools.combinations(paths, k):
            argv = [
                "specialize", "--embeddings", str(emb), "--format", "glove-text",
                "--method", preset.replace("_", "-"), "--epochs", "1",
                "--out", str(tmp_path / "x.vec"),
            ]
            for relation in given:
                argv += [f"--{relation}", str(paths[relation])]
            code = main(argv)
            cli_error = capsys.readouterr().err

            store = load_embeddings(str(emb), "glove-text")
            cs = ConstraintSet()
            for relation in given:
                load_pairs(cs, str(paths[relation]), relation, store)
            try:
                specialize(store, cs, SpecializeConfig(preset=preset, epochs=1))
                library_error = None
            except ValueError as exc:
                library_error = str(exc)
                assert "requires nonempty" in library_error

            assert (code == 2) == (library_error is not None), (given, cli_error)
            if code == 2 and given:
                named = set(re.findall(r"--(\w+)", cli_error))
                assert named == {r for r, attr in PAIR_SETS.items() if attr in library_error}


def test_outputs_do_not_depend_on_the_parse_cache(workspace, capsys):
    tmp_path, emb, *_ = workspace
    dataset = tmp_path / "sim.tsv"
    dataset.write_text("a1\ta2\t9.0\na1\tb1\t1.0\nc1\tc2\t5.0\nb1\tb2\t7.5\n")
    out = tmp_path / "out.vec"
    runs = []
    for run in range(2):  # the first parses every input, the second reads its cache
        assert os.path.exists(f"{emb}.lexfit-cache") == (run == 1)
        assert os.path.exists(f"{out}.lexfit-cache") == (run == 1)
        assert main(specialize_args(workspace, out)) == 0
        files = [out.read_bytes(), (tmp_path / "out.vec.manifest").read_bytes()]
        assert main(["eval", "--embeddings", str(out), "--task", "sim",
                     "--dataset", str(dataset), "--out", str(tmp_path / "r.tsv")]) == 0
        files.append((tmp_path / "r.tsv").read_bytes())
        captured = capsys.readouterr()
        assert captured.err == ""
        runs.append((files, captured.out.splitlines()[1:]))  # without the run time
    assert runs[0] == runs[1]
    manifest = json.loads(runs[0][0][1])
    embeddings_entry = next(e for e in manifest["inputs"] if e["role"] == "embeddings")
    assert embeddings_entry["sha256"] == hashlib.sha256(emb.read_bytes()).hexdigest()


def run_child(code: str) -> str:
    """Standard output of ``python -c code`` with this tree's package importable."""
    src = os.path.dirname(os.path.dirname(lexfit.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True).stdout


def test_specialize_never_imports_numpy_ma(tmp_path):
    # np.isin imports numpy.ma (about 10 ms a process) once its held keys are too many and
    # too spread for a loop or a lookup table, as here; pair ingestion searches sorted keys
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(300)]
    emb = tmp_path / "v.vec"
    save_embeddings(EmbeddingStore(words, rng.standard_normal((300, 8))), str(emb), "glove-text")
    files = []
    for relation, count in (("syn", 200), ("ant", 200), ("hyper", 100)):
        path = tmp_path / f"{relation}.tsv"
        path.write_text("".join(f"w{a} w{b}\n" for a, b in rng.integers(0, 300, (count, 2))))
        files += [f"--{relation}", str(path)]
    runs = [["specialize", "--embeddings", str(emb), "--format", "glove-text", *files,
             "--method", method.replace("_", "-"), "--out", str(tmp_path / f"{method}.vec"),
             "--epochs", "1", "--batch-size", "64"] for method in lexfit.cli.PRESETS]
    out = run_child("import sys, lexfit.cli\n"
                    f"codes = [lexfit.cli.main(argv) for argv in {runs!r}]\n"
                    "print(codes, 'numpy.ma' in sys.modules)")
    assert out.splitlines()[-1] == f"{[0] * len(runs)} False"


def raising(error):
    def raises(*args, **kwargs):
        raise error
    return raises


class TestHeapPolicy:
    """``specialize`` fixes glibc's trim and mmap thresholds once; nothing else sets them."""

    @pytest.fixture
    def libc(self, monkeypatch):
        """A stand-in glibc: ``calls`` records each ``mallopt`` call, and ``mallopt``
        refuses the parameters in ``refused``."""
        libc = types.SimpleNamespace(calls=[], refused=())

        def mallopt(param, value):
            libc.calls.append((param, value))
            return int(param not in libc.refused)

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        return libc

    def test_specialize_sets_both_thresholds_once(self, workspace, libc, tmp_path):
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
        assert libc.calls == [(-3, 32 << 20), (-1, 32 << 20)]

    def test_a_refused_mmap_threshold_leaves_the_trim_threshold(self, workspace, libc,
                                                                 tmp_path):
        # the trim threshold alone would pin the mmap threshold at 128 KiB
        libc.refused = (-3,)
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        assert libc.calls == [(-3, 32 << 20)]

    def test_usage_error_sets_nothing(self, workspace, libc, tmp_path):
        assert main(specialize_args(workspace, tmp_path / "out.vec", ("--epochs", "0"))) == 2
        assert libc.calls == []

    def test_eval_and_nearest_set_nothing(self, workspace, libc):
        tmp_path, emb, *_ = workspace
        ds = tmp_path / "sim.tsv"
        ds.write_text("a1\ta2\t9.0\na1\tb1\t2.0\na2\tb2\t1.0\n")
        assert main(["eval", "--embeddings", str(emb), "--task", "sim", "--dataset", str(ds)]) == 0
        assert main(["nearest", "--embeddings", str(emb), "--word", "a1", "--k", "2"]) == 0
        assert libc.calls == []

    def test_import_opens_no_c_library(self):
        out = run_child("import ctypes, numpy\n"
                        "calls = []\n"
                        "ctypes.CDLL = lambda *args, **kwargs: calls.append(args)\n"
                        "import lexfit, lexfit.cli\n"
                        "print(calls)")
        assert out == "[]\n"

    @pytest.mark.parametrize("confstr, cdll", [
        (raising(ValueError("unrecognized configuration name")), None),  # not glibc
        (raising(OSError(22, "Invalid argument")), None),
        (lambda name: None, None),  # the name is known but has no value
        (None, raising(OSError("no C library handle"))),
        (None, raising(TypeError("expected a path"))),  # CDLL(None) where no handle is global
        (None, lambda name: object()),  # a C library without mallopt
    ])
    def test_a_missing_mallopt_changes_nothing(self, workspace, tmp_path, monkeypatch,
                                               confstr, cdll):
        assert main(specialize_args(workspace, tmp_path / "ref.vec")) == 0
        monkeypatch.setattr(os, "confstr", confstr or (lambda name: "glibc 2.36"))
        monkeypatch.setattr(ctypes, "CDLL", cdll or raising(AssertionError("CDLL called")))
        assert main(specialize_args(workspace, tmp_path / "out.vec")) == 0
        assert (tmp_path / "out.vec").read_bytes() == (tmp_path / "ref.vec").read_bytes()


def test_fault_probe_runs_each_tree_in_turn():
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "probe_faults.py")
    src = os.path.dirname(os.path.dirname(lexfit.cli.__file__))
    out = subprocess.run([sys.executable, tool, "--src", src, "--src", src, "--rounds", "1",
                          "--vocab", "300", "--taxonomy-words", "120", "--eval"],
                         capture_output=True, text=True, check=True).stdout
    *records, medians = map(json.loads, out.splitlines())
    commands = ["specialize", "eval sim", "eval hyperlex", "eval bless", "eval wbless",
                "eval bibless"]
    assert [r["command"] for r in records] == commands * 2
    assert {r["round"] for r in records} == {0} and {r["code"] for r in records} == {0}
    for first, second in zip(records, records[len(commands):]):
        assert first["sha256"] == second["sha256"] is not None
    assert records[0]["manifest_sha256"] == records[6]["manifest_sha256"] is not None
    assert all(r["minflt"] > 0 and r["maxrss_mb"] > 0 and r["wall_s"] > 0 for r in records)
    phases = ("start_ms", "import_ms", "command_ms", "exit_ms")
    for r in records:  # the phases tile the wall time
        assert all(r[phase] > 0 for phase in phases)
        assert sum(r[phase] for phase in phases) == pytest.approx(1000 * r["wall_s"], abs=0.1)
    tree = medians["medians"][os.path.realpath(src)]
    assert list(tree) == commands
    assert all(set(m) == {"wall_s", "user_s", "sys_s", "minflt", "maxrss_mb", *phases}
               for m in tree.values())


def test_digest_probe_compares_trees(tmp_path):
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "probe_digests.py")
    src = os.path.dirname(os.path.dirname(lexfit.cli.__file__))
    changed = tmp_path / "changed"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__"))
    source = changed / "lexfit" / "specializer.py"
    text = source.read_text()
    assert "learning_rate: float = 0.03" in text
    source.write_text(text.replace("learning_rate: float = 0.03", "learning_rate: float = 0.05"))
    child = subprocess.run([sys.executable, tool, "--world", "smoke", "--preset", "lear",
                            "--preset", "counterfitting", "--src", src, "--src", src,
                            "--src", str(changed)], capture_output=True, text=True)
    assert child.returncode == 1, child.stderr
    records = [json.loads(line) for line in child.stdout.splitlines()]
    assert [(r["preset"], r["src"]) for r in records] == [
        (preset, tree) for preset in ("lear", "counterfitting")
        for tree in (src, src, str(changed))]
    assert {r["world"] for r in records} == {"smoke"} and {r["code"] for r in records} == {0}
    for same, _, other in zip(*[iter(records)] * 3):
        assert {**same, "src": None} == {**_, "src": None}
        assert same["summary"].startswith("specialized 300 vectors with ")
        assert " in <t>s\n" in same["summary"]
        assert other["sha256"] != same["sha256"]
        assert other["summary"] == same["summary"]
        assert same["manifest_sha256"] is not None
        # the changed default is recorded in the manifest
        assert other["manifest_sha256"] != same["manifest_sha256"]
        # each eval task reports on the tree's own out.vec, staged like the run's outputs
        assert set(same["eval_sha256"]) == {"sim", "hyperlex", "bless", "wbless", "bibless"}
        assert None not in same["eval_sha256"].values()
        assert other["eval_sha256"]["sim"] != same["eval_sha256"]["sim"]
        assert not any(r["tmp_left"] for r in (same, _, other))
    child = subprocess.run([sys.executable, tool, "--world", "smoke", "--preset", "lear",
                            "--src", src, "--src", src], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


class TestEvalCommand:
    def test_similarity_task(self, workspace, capsys):
        tmp_path, emb, *_ = workspace
        ds = tmp_path / "sim.tsv"
        ds.write_text("a1\ta2\t9.0\na1\tb1\t2.0\na2\tb2\t1.0\n")
        code = main([
            "eval", "--embeddings", str(emb), "--task", "sim",
            "--dataset", str(ds), "--backoff",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "spearman_rho" in out
        assert "coverage" in out

    @pytest.mark.parametrize("backoff", [[], ["--backoff"]])
    def test_empty_word_field_is_located(self, workspace, capsys, backoff):
        tmp_path, emb, *_ = workspace
        ds = tmp_path / "sim.tsv"
        ds.write_text("a1\ta2\t9.0\na1\t\t2.0\na2\tb2\t1.0\n")
        code = main(["eval", "--embeddings", str(emb), "--task", "sim",
                     "--dataset", str(ds), *backoff])
        assert code == 1
        assert capsys.readouterr().err == f"lexfit: error: {ds}:2: empty word field\n"

    def test_wbless_deterministic(self, workspace, capsys):
        tmp_path, emb, *_ = workspace
        ds = tmp_path / "wb.tsv"
        ds.write_text(
            "a1\thypa\thyper\na2\thypa\thyper\nb1\thypb\thyper\n"
            "a1\tb1\tother\na2\tb2\tother\nc1\tc2\tother\n"
        )
        argv = ["eval", "--embeddings", str(emb), "--task", "wbless",
                "--dataset", str(ds), "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_report_written_to_out(self, workspace):
        tmp_path, emb, *_ = workspace
        ds = tmp_path / "sim.tsv"
        ds.write_text("a1\ta2\t9.0\na1\tb1\t2.0\n")
        report_path = tmp_path / "report.tsv"
        code = main([
            "eval", "--embeddings", str(emb), "--task", "sim",
            "--dataset", str(ds), "--out", str(report_path),
        ])
        assert code == 0
        text = report_path.read_text()
        assert text.startswith("dataset\tmetric\tvalue")

    @pytest.mark.parametrize("task", ["wbless", "bibless"])
    def test_sample_holding_out_nothing_is_runtime_error(self, workspace, capsys, task):
        tmp_path, emb, *_ = workspace
        ds = tmp_path / "tiny.tsv"
        ds.write_text("a1\thypa\thyper\nb1\tb2\tother\n")
        report_path = tmp_path / "report.tsv"
        code = main([
            "eval", "--embeddings", str(emb), "--task", task,
            "--dataset", str(ds), "--out", str(report_path),
        ])
        assert code == 1
        assert "holds out none" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("exponent", ["e200", "e-200"])
    def test_extreme_rows_score_by_true_cosine_and_norm(self, tmp_path, capsys, exponent):
        emb = write_extreme_vectors(tmp_path, exponent)
        sim = tmp_path / "sim.tsv"
        # human scores in the order of the true cosines 0.948683, 0.894427, 0.832050
        sim.write_text("a\tc\t3.0\na\tb\t2.0\na\td\t1.0\n")
        bless = tmp_path / "bless.tsv"
        # |a| < |b| at either scale; |a| is 1e200 times |c| or 1e-200 times it
        smaller = ("c", "a") if exponent == "e200" else ("a", "c")
        bless.write_text(f"a\tb\thyper\n{smaller[0]}\t{smaller[1]}\thyper\n")
        for task, dataset in (("sim", sim), ("bless", bless)):
            report = tmp_path / f"{task}.tsv"
            argv = ["eval", "--embeddings", str(emb), "--task", task,
                    "--dataset", str(dataset), "--out", str(report)]
            assert main(argv) == 0
            assert report.read_text().splitlines()[1].split("\t")[2] == "1"

    @pytest.mark.parametrize("task", ["sim", "hyperlex", "bless"])
    def test_overflowing_norm_is_runtime_error(self, tmp_path, capsys, task):
        emb = tmp_path / "big.vec"
        emb.write_text("b 1 2\na 1.5e308 1.5e308\nc 2 1\nd 1 1\n")
        dataset = tmp_path / "d.tsv"
        dataset.write_text("a\tb\t1.0\nc\td\t2.0\n" if task != "bless" else "a\tb\thyper\n")
        code = main(["eval", "--embeddings", str(emb), "--task", task, "--dataset", str(dataset)])
        assert code == 1
        assert capsys.readouterr().err == f"lexfit: error: {emb}:2: vector norm overflows float64\n"

    def test_bibless_pair_whose_norms_overflow_when_summed(self, tmp_path):
        # norm-separated taxonomic pairs, orthogonal others, and one hypo
        # pair whose two norms, each representable, sum past the largest float64
        shapes = {"hyper": ("1 0", "1.5 0"), "hypo": ("1.5 0", "1 0"), "other": ("1 0", "0 1")}
        vectors = ["big_hypo 1e308 1e308\n", "big_hyper 9e307 1e308\n"]
        pairs = ["big_hypo\tbig_hyper\thypo\n"]
        for i in range(18):
            kind = ("hyper", "hypo", "other")[i % 3]
            vectors += [f"a{i} {shapes[kind][0]}\n", f"b{i} {shapes[kind][1]}\n"]
            pairs.append(f"a{i}\tb{i}\t{kind}\n")
        emb = tmp_path / "huge.vec"
        emb.write_text("".join(vectors))
        dataset = tmp_path / "bibless.tsv"
        dataset.write_text("".join(pairs))
        report = tmp_path / "report.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--embeddings", str(emb), "--task", "bibless",
                         "--dataset", str(dataset), "--out", str(report)])
        assert code == 0
        assert report.read_text().splitlines()[1].split("\t")[2] == "1"

    @pytest.mark.parametrize("task", ["sim", "wbless", "bibless"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, task):
        code = main(["eval", "--embeddings", str(tmp_path / "missing.vec"), "--task", task,
                     "--dataset", str(tmp_path / "missing.tsv"), "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "lexfit: error: --seed must be >= 0\n"

    def test_report_into_a_missing_directory_is_runtime_error(self, workspace, capsys):
        tmp_path, emb, *_ = workspace
        ds = tmp_path / "sim.tsv"
        ds.write_text("a1\ta2\t9.0\na1\tb1\t2.0\na2\tb2\t1.0\n")
        report = tmp_path / "missing" / "r.tsv"
        code = main(["eval", "--embeddings", str(emb), "--task", "sim", "--dataset", str(ds),
                     "--out", str(report)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the path asked for, not the temporary file the write opened
        assert captured.err == f"lexfit: error: [Errno 2] No such file or directory: '{report}'\n"
        assert not (tmp_path / "missing").exists()

    def test_a_failed_publish_keeps_the_old_report(self, workspace, capsys, monkeypatch):
        tmp_path, emb, *_ = workspace
        ds = tmp_path / "sim.tsv"
        ds.write_text("a1\ta2\t9.0\na1\tb1\t2.0\na2\tb2\t1.0\n")
        report = tmp_path / "r.tsv"
        report.write_text("an earlier report\n")

        def replace(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(embeddings.os, "replace", replace)
        code = main(["eval", "--embeddings", str(emb), "--task", "sim", "--dataset", str(ds),
                     "--out", str(report)])
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "lexfit: error: [Errno 18] Invalid cross-device link\n")
        assert report.read_bytes() == b"an earlier report\n"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("task", ["sim", "hyperlex", "bless", "wbless", "bibless"])
    def test_report_file_is_the_api_report(self, workspace, task):
        tmp_path, emb, *_ = workspace
        dataset = tmp_path / f"{task}.tsv"
        if task in ("sim", "hyperlex"):
            dataset.write_text("a1\ta2\t9.0\na1\tb1\t2.0\na2\tb2\t1.0\nc1\tzz\t4.0\n")
            load = load_similarity_dataset
        else:
            dataset.write_text(
                "a1\thypa\thyper\na2\thypa\thyper\nb1\thypb\thyper\nhypb\tb2\thypo\n"
                "a1\tb1\tother\na2\tb2\tother\nc1\tc2\tother\nd1\tzz\tother\n"
            )
            load = load_relation_dataset
        report = tmp_path / "report.tsv"
        assert main(["eval", "--embeddings", str(emb), "--task", task, "--dataset",
                     str(dataset), "--seed", "3", "--out", str(report)]) == 0
        protocol, options = {
            "sim": (eval_similarity, {}),
            "hyperlex": (hyperlex_eval, {}),
            "bless": (bless_directionality, {}),
            "wbless": (wbless_classify, {"seed": 3}),
            "bibless": (bibless_classify, {"seed": 3}),
        }[task]
        store = load_embeddings(str(emb), "glove-text")
        expected = protocol(store, load(str(dataset)), use_backoff=False, **options)
        assert report.read_text() == expected.to_tsv()

    @pytest.mark.parametrize("task", ["hyperlex", "wbless", "bibless"])
    def test_graded_score_saturates_where_the_norm_ratio_overflows(self, tmp_path, task):
        # |a| / |b| and |a| / |g| are past the float64 range, and |b| / |a|
        # below it; g points away from a
        emb = tmp_path / "far.vec"
        emb.write_text(
            "a 1e200 1e200\nb 1e-200 2e-200\ng -1e-200 -2e-200\nc 1 2\nd 2 1\ne 1 1\nf 3 1\n"
        )
        dataset = tmp_path / f"{task}.tsv"
        if task == "hyperlex":
            # graded scores inf, 0.8, 2 and -inf: in the order of the ratings
            dataset.write_text("b\ta\t5.0\nc\td\t1.0\ne\tf\t2.0\ng\ta\t0.5\n")
        else:
            dataset.write_text(
                "b\ta\thyper\nc\td\tother\ne\tf\thyper\nd\tc\thypo\nf\te\tother\n"
                "g\ta\tother\n"
            )
        report = tmp_path / "report.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--embeddings", str(emb), "--task", task,
                         "--dataset", str(dataset), "--out", str(report)])
        assert code == 0
        if task == "hyperlex":
            assert report.read_text().splitlines()[1].split("\t")[2] == "1"

    def test_unknown_task_exits_2(self, workspace):
        _, emb, *_ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--embeddings", str(emb), "--task", "foo", "--dataset", "x"])
        assert exc.value.code == 2


class TestNearestCommand:
    @pytest.mark.parametrize("text", [None, "w1 1 0\nw2 x 1\n"], ids=["missing", "malformed"])
    def test_unreadable_embeddings_is_runtime_error(self, tmp_path, capsys, text):
        emb = tmp_path / "v.vec"
        if text is not None:
            emb.write_text(text)
        assert main(["nearest", "--embeddings", str(emb), "--word", "w1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lexfit: error: ") and str(emb) in err

    def test_prints_neighbors(self, tmp_path, capsys):
        store = EmbeddingStore(["w1", "w2", "w3"], [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        emb = tmp_path / "v.vec"
        save_embeddings(store, str(emb), "glove-text")
        code = main(["nearest", "--embeddings", str(emb), "--word", "w1", "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "w2\t1.000000"

    def test_k_beyond_the_vocabulary_prints_every_other_word(self, tmp_path, capsys):
        store = EmbeddingStore(["w1", "w2", "w3"], [[1.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        emb = tmp_path / "v.vec"
        save_embeddings(store, str(emb), "glove-text")
        assert main(["nearest", "--embeddings", str(emb), "--word", "w1", "--k", "99"]) == 0
        assert capsys.readouterr().out.splitlines() == ["w2\t0.894427", "w3\t0.000000"]

    def test_tie_at_the_kth_place_prints_the_smaller_row(self, tmp_path, capsys):
        # b and d tie for second place, and only one of them is printed
        emb = tmp_path / "v.vec"
        emb.write_text("q 1 0\nd 1 1\nbest 1 0.1\nb 2 2\nfar -1 0\n")
        assert main(["nearest", "--embeddings", str(emb), "--word", "q", "--k", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["best\t0.995037", "d\t0.707107"]

    def test_backoff_reported(self, tmp_path, capsys):
        store = EmbeddingStore(["run", "walk"], [[1.0, 0.1], [0.0, 1.0]])
        emb = tmp_path / "v.vec"
        save_embeddings(store, str(emb), "glove-text")
        code = main(["nearest", "--embeddings", str(emb), "--word", "runs", "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backed off to 'run' (depth 1)" in out

    def test_k_zero_is_usage_error(self, tmp_path):
        store = EmbeddingStore(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        emb = tmp_path / "v.vec"
        save_embeddings(store, str(emb), "glove-text")
        assert main(["nearest", "--embeddings", str(emb), "--word", "a", "--k", "0"]) == 2

    def test_empty_word_is_usage_error(self, tmp_path, capsys):
        store = EmbeddingStore(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        emb = tmp_path / "v.vec"
        save_embeddings(store, str(emb), "glove-text")
        assert main(["nearest", "--embeddings", str(emb), "--word", ""]) == 2
        assert capsys.readouterr().err == "lexfit: error: --word must not be empty\n"

    def test_uncovered_word_is_runtime_error(self, tmp_path, capsys):
        store = EmbeddingStore(["aa", "bb"], [[1.0, 0.0], [0.0, 1.0]])
        emb = tmp_path / "v.vec"
        save_embeddings(store, str(emb), "glove-text")
        assert main(["nearest", "--embeddings", str(emb), "--word", "zz"]) == 1
        assert "not covered" in capsys.readouterr().err

    @pytest.mark.parametrize("text, problem", [
        ("a 1 2\nb 1 x\n", ": malformed vector data"),
        ("", ": no embedding records found"),
        # a row check names the record by number and token
        ("a 1 2\nb 0 0\n", ": record 2 ('b'): all-zero vector for 'b'"),
        ("a 1 2\nb 1 2\nc 1 inf\nd 0 0\n", ": record 3 ('c'): non-finite vector component"),
        ("a 1 2\n\nb 1.5e308 1.5e308\n", ": record 2 ('b'): vector norm overflows float64"),
        # an escaped byte (surrogateescape) is written as the byte itself
        ("a 1 2\nb\udce9 1 2\n", ":2: byte 0xe9 is not valid UTF-8"),
    ], ids=["non-numeric", "empty", "all-zero", "non-finite", "overflow", "latin-1"])
    def test_a_faulty_fifo_is_reported_once(self, tmp_path, text, problem):
        # a FIFO whose writer has finished cannot be opened again to locate the fault
        fifo = tmp_path / "bad.fifo"
        os.mkfifo(fifo)
        writer = subprocess.Popen([sys.executable, "-c", "import os, sys; "
                                   "open(sys.argv[1], 'wb').write(os.fsencode(sys.argv[2]))",
                                   str(fifo), text])
        src = os.path.dirname(os.path.dirname(lexfit.cli.__file__))
        try:
            child = subprocess.run([sys.executable, "-m", "lexfit.cli", "nearest",
                                    "--embeddings", str(fifo), "--word", "a"],
                                   capture_output=True, text=True, timeout=60,
                                   env={**os.environ, "PYTHONPATH": src})
        finally:
            writer.kill()
            writer.wait()
        assert child.returncode == 1
        assert child.stderr == f"lexfit: error: {fifo}{problem}\n"
        assert child.stdout == ""
        assert not list(tmp_path.glob("*.lexfit-cache*"))

    @pytest.mark.parametrize("exponent", ["e200", "e-200"])
    def test_extreme_rows_rank_by_true_cosine(self, tmp_path, capsys, exponent):
        # squares of 1e200 overflow and squares of 1e-200 underflow
        emb = write_extreme_vectors(tmp_path, exponent)
        assert main(["nearest", "--embeddings", str(emb), "--word", "a", "--k", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "c\t0.948683", "b\t0.894427", "d\t0.832050",
        ]


def write_extreme_vectors(tmp_path, exponent):
    """A glove file whose rows a and b are scaled by 10 to ``exponent``."""
    emb = tmp_path / "extreme.vec"
    emb.write_text(f"a 1{exponent} 1{exponent}\nb 3{exponent} 1{exponent}\nc 1 2\nd 5 1\n")
    return emb


class TestExitCollection:
    """A command's process skips the interpreter's exit-time collection; a caller
    that runs main in process keeps its collector."""

    def test_main_registers_one_hook_and_freezes_nothing(self, workspace, monkeypatch, capsys):
        _, emb, *_ = workspace
        hooks = []
        monkeypatch.setattr(atexit, "register", hooks.append)
        lexfit.cli._skip_exit_collection.cache_clear()
        enabled = gc.isenabled()
        try:
            for _ in range(3):
                assert main(["nearest", "--embeddings", str(emb), "--word", "a1"]) == 0
                assert main(["nearest", "--embeddings", str(emb), "--word", "a1", "--k", "0"]) == 2
            assert hooks == [gc.freeze]
            assert gc.get_freeze_count() == 0 and gc.isenabled() == enabled
        finally:
            lexfit.cli._skip_exit_collection.cache_clear()

    @pytest.mark.parametrize("args, code", [
        (["eval", "--task", "sim"], 0),
        (["eval", "--task", "sim", "--seed", "-1"], 2),
        (["eval", "--task", "bless"], 1),  # the similarity file has no relation labels
        (["eval", "--task", "sim", "--nonsense"], 2),
    ], ids=["success", "usage", "runtime", "argparse"])
    def test_a_module_child_freezes_at_exit_and_prints_as_main_does(self, workspace, capsys,
                                                                     args, code):
        tmp_path, emb, *_ = workspace
        ds = tmp_path / "sim.tsv"
        ds.write_text("a1\ta2\t9.0\na1\tb1\t2.0\na2\tb2\t1.0\n")
        argv = [*args, "--embeddings", str(emb), "--dataset", str(ds)]
        with pytest.raises(SystemExit) if "--nonsense" in args else contextlib.nullcontext():
            assert main(argv) == code
        expected = capsys.readouterr()
        # a hook registered before main runs after main's own, at exit
        read, write = os.pipe()
        probe = ("import atexit, gc, os, runpy, sys\n"
                 f"atexit.register(lambda: os.write({write}, b'%d' % gc.get_freeze_count()))\n"
                 "sys.argv = ['lexfit', *sys.argv[1:]]\n"
                 "runpy.run_module('lexfit.cli', run_name='__main__', alter_sys=True)\n")
        src = os.path.dirname(os.path.dirname(lexfit.cli.__file__))
        try:
            child = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                                   text=True, env={**os.environ, "PYTHONPATH": src},
                                   pass_fds=(write,))
        finally:
            os.close(write)
        with os.fdopen(read, "rb") as hook:
            frozen = int(hook.read() or b"0")
        assert (child.returncode, child.stdout, child.stderr) == (code, expected.out, expected.err)
        assert frozen > 1000  # every object the run left, numpy's among them
