import dataclasses
import itertools
import json
import re
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
    def test_prints_neighbors(self, tmp_path, capsys):
        store = EmbeddingStore(["w1", "w2", "w3"], [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        emb = tmp_path / "v.vec"
        save_embeddings(store, str(emb), "glove-text")
        code = main(["nearest", "--embeddings", str(emb), "--word", "w1", "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "w2\t1.000000"

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

    def test_uncovered_word_is_runtime_error(self, tmp_path, capsys):
        store = EmbeddingStore(["aa", "bb"], [[1.0, 0.0], [0.0, 1.0]])
        emb = tmp_path / "v.vec"
        save_embeddings(store, str(emb), "glove-text")
        assert main(["nearest", "--embeddings", str(emb), "--word", "zz"]) == 1
        assert "not covered" in capsys.readouterr().err

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
