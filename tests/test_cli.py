import argparse
import dataclasses
import json
import re
import shlex
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sessrec import model as M
from sessrec import tensor as T
from sessrec import train as TR
from sessrec.cli import (EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC,
                         EXIT_OK, build_parser, config_from_args, main)
from sessrec.data import PreprocessConfig
from sessrec.graph import GraphConfig
from sessrec.model import Hyperparams
from sessrec.synth import SynthSpec
from conftest import (BROKEN_BUNDLES, child_env, column, drop_blocks, edit_column,
                      format_1_doc, format_2_doc, on_doc, put, read_doc, rewrite_meta,
                      set_column)


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bundle.json"
    assert run("synth", "--out", str(path), "--n-items", "30", "--sessions", "60",
               "--chains", "3", "--chain-len", "6", "--noise", "0.1",
               "--seed", "5") == EXIT_OK
    return path


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "sessrec" in capsys.readouterr().out


def test_preprocess_and_graph_export(tmp_path):
    raw = tmp_path / "events.tsv"
    rows = []
    t = 0
    for r in range(6):
        for s, items in enumerate([["a", "b", "c"], ["c", "b"]]):
            for k in items:
                rows.append(f"s{r}_{s}\t{k}\t{t}")
                t += 1
    raw.write_text("\n".join(rows) + "\n")
    bundle = tmp_path / "bundle.json"
    assert run("preprocess", "--in", str(raw), "--out", str(bundle),
               "--min-item-freq", "2") == EXIT_OK
    edges = tmp_path / "edges.tsv"
    out = tmp_path / "bundle_g.json"
    assert run("build-graph", "--in", str(bundle), "--out", str(out),
               "--epsilon", "2", "--export", str(edges)) == EXIT_OK
    lines = edges.read_text().splitlines()
    assert lines and all(len(l.split("\t")) == 3 for l in lines)
    assert lines == sorted(lines, key=lambda l: tuple(map(int, l.split("\t")[:2])))


def test_end_to_end_pipeline(tmp_path, synth_bundle):
    with_graph = tmp_path / "bundle_g.json"
    assert run("build-graph", "--in", str(synth_bundle), "--out",
               str(with_graph)) == EXIT_OK
    out_dir = tmp_path / "run"
    assert run("train", "--data", str(with_graph), "--out", str(out_dir),
               "--d", "8", "--layers", "1", "--epochs", "2", "--batch", "16",
               "--seed", "1") == EXIT_OK
    assert (out_dir / "metrics.json").exists()
    assert (out_dir / "config.json").exists()
    assert (out_dir / "best.ckpt").exists()
    log_lines = (out_dir / "train.log").read_text().splitlines()
    assert all(json.loads(l) for l in log_lines)
    metrics_out = tmp_path / "metrics.json"
    assert run("eval", "--checkpoint", str(out_dir / "best.ckpt"), "--data",
               str(with_graph), "--ks", "10,20", "--out",
               str(metrics_out)) == EXIT_OK
    doc = json.loads(metrics_out.read_text())
    assert {"p@10", "mrr@10", "p@20", "mrr@20"} <= set(doc)


def test_train_beta_zero_is_valid_ablation(tmp_path, synth_bundle):
    out_dir = tmp_path / "scl"
    assert run("train", "--data", str(synth_bundle), "--out", str(out_dir),
               "--d", "8", "--layers", "1", "--epochs", "1", "--beta", "0",
               "--seed", "1") == EXIT_OK
    cfg = json.loads((out_dir / "config.json").read_text())
    assert cfg["beta"] == 0.0


def test_unknown_config_key_rejected(tmp_path, synth_bundle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 8, "learning_rate_typo": 0.1}))
    assert run("train", "--data", str(synth_bundle), "--out",
               str(tmp_path / "x"), "--config", str(cfg)) == EXIT_CONFIG


@pytest.mark.parametrize("key", ["d", "num_layers", "batch_size"])
def test_non_integer_config_value_rejected(tmp_path, synth_bundle, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 4, "num_layers": 1, "epochs": 1, key: 1.5}))
    assert run("train", "--data", str(synth_bundle), "--out",
               str(tmp_path / "x"), "--config", str(cfg)) == EXIT_CONFIG


@pytest.mark.parametrize("values", [{"use_spl": "no"}, {"epochs": True}, {"tau": True}])
def test_config_value_of_the_wrong_type_rejected(tmp_path, synth_bundle, values):
    # JSON true is a Python int and "no" is truthy: neither may pass as a number or a switch
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 4, "num_layers": 1, "epochs": 1, **values}))
    out_dir = tmp_path / "x"
    assert run("train", "--data", str(synth_bundle), "--out", str(out_dir),
               "--config", str(cfg)) == EXIT_CONFIG
    assert not (out_dir / "config.json").exists()


def test_missing_data_file(tmp_path):
    assert run("train", "--data", str(tmp_path / "nope.json"), "--out",
               str(tmp_path / "x"), "--epochs", "1") == EXIT_DATA


def test_vocab_mismatch_exit_code(tmp_path, synth_bundle):
    out_dir = tmp_path / "run"
    assert run("train", "--data", str(synth_bundle), "--out", str(out_dir),
               "--d", "8", "--layers", "0", "--epochs", "1", "--seed",
               "2") == EXIT_OK
    other = tmp_path / "other.json"
    assert run("synth", "--out", str(other), "--n-items", "25", "--sessions",
               "50", "--chains", "3", "--chain-len", "5", "--seed", "6") == EXIT_OK
    assert run("eval", "--checkpoint", str(out_dir / "best.ckpt"), "--data",
               str(other), "--out", str(tmp_path / "m.json")) == EXIT_CHECKPOINT


def test_gradcheck_command(capsys):
    assert run("gradcheck", "--n", "6", "--d", "4", "--layers", "1",
               "--batch", "3") == EXIT_OK
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["max_relative_error"] < 1e-4


def test_gradcheck_batch_above_six(capsys, monkeypatch):
    # --batch 9 checks the loss of 9 examples, not of the 6 drawn for smaller batches
    sizes = []

    def batch_loss(examples, *args):
        sizes.append(len(examples))
        return real(examples, *args)

    real = TR.batch_loss
    monkeypatch.setattr(TR, "batch_loss", batch_loss)
    assert run("gradcheck", "--n", "6", "--d", "3", "--layers", "1",
               "--batch", "9") == EXIT_OK
    assert sizes and set(sizes) == {9}
    assert json.loads(capsys.readouterr().out)["max_relative_error"] < 1e-4


def runtime_warnings(recwarn):
    return [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_gradcheck_non_finite_loss_exit_code(capsys, recwarn):
    # tau 1e-320 overflows the SPL logits to NaN, which must not score 0; the
    # numeric error is the one line on stderr, with no numpy warning before it
    assert run("gradcheck", "--n", "6", "--d", "4", "--layers", "1",
               "--batch", "3", "--tau", "1e-320") == EXIT_NUMERIC
    out, err = capsys.readouterr()
    for line in out.splitlines():
        json.loads(line)
    assert err == ("numeric error: gradient check failed: the loss, a gradient or a "
                   "finite difference is not finite\n")
    assert runtime_warnings(recwarn) == []


@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
def test_train_non_finite_loss_exit_code(tmp_path, synth_bundle, monkeypatch, request,
                                         capsys, recwarn, pooled):
    # a run stopped in epoch 0 leaves its config and log, and no checkpoint
    if pooled:
        tiles = request.getfixturevalue("tile_pool")
        monkeypatch.setattr(T, "TILE_ENTRIES", 300)   # 30 items in 3 tiles of 10 rows
    else:
        monkeypatch.setattr(T, "WORKERS", 1)
    out_dir = tmp_path / "run"
    assert run("train", "--data", str(synth_bundle), "--out", str(out_dir), "--d", "8",
               "--layers", "2", "--epochs", "1", "--tau", "1e-320") == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric error: non-finite loss at epoch 0 batch 0\n"
    assert runtime_warnings(recwarn) == []
    assert sorted(p.name for p in out_dir.iterdir()) == ["config.json", "train.log"]
    if pooled:
        assert tiles


def test_preset_sets_layers_and_beta(tmp_path, synth_bundle):
    out_dir = tmp_path / "preset"
    assert run("train", "--data", str(synth_bundle), "--out", str(out_dir),
               "--preset", "tmall", "--d", "8", "--epochs", "0") == EXIT_OK
    cfg = json.loads((out_dir / "config.json").read_text())
    assert cfg["num_layers"] == 3 and cfg["beta"] == 75.0


def test_config_echo_reproduces_results(tmp_path, synth_bundle):
    first = tmp_path / "a"
    assert run("train", "--data", str(synth_bundle), "--out", str(first),
               "--d", "8", "--layers", "1", "--epochs", "2", "--seed",
               "3") == EXIT_OK
    echoed = json.loads((first / "config.json").read_text())
    cfg_file = tmp_path / "echo.json"
    hyper_keys = {"d", "num_layers", "epsilon", "tau", "beta", "lr", "l2",
                  "batch_size", "epochs", "max_session_len", "seed", "use_spl",
                  "use_attention", "use_reverse_pos", "spl_scope", "ce_form"}
    cfg_file.write_text(json.dumps({k: v for k, v in echoed.items()
                                    if k in hyper_keys}))
    second = tmp_path / "b"
    assert run("train", "--data", str(synth_bundle), "--out", str(second),
               "--config", str(cfg_file)) == EXIT_OK
    assert (first / "metrics.json").read_bytes() == \
           (second / "metrics.json").read_bytes()
    assert (first / "best.ckpt").read_bytes() == (second / "best.ckpt").read_bytes()


def test_short_checkpoint_header_exit_code(tmp_path, synth_bundle):
    ckpt = tmp_path / "t.ckpt"
    ckpt.write_bytes(b"SESSRECCKPT\n\x01\x02")
    assert run("eval", "--checkpoint", str(ckpt), "--data", str(synth_bundle),
               "--out", str(tmp_path / "e.json")) == EXIT_CHECKPOINT


def test_checkpoint_without_parameter_exit_code(tmp_path, synth_bundle):
    out = tmp_path / "run"
    assert run("train", "--data", str(synth_bundle), "--out", str(out), "--d", "4",
               "--layers", "1", "--epochs", "1") == EXIT_OK
    bad = tmp_path / "nop.ckpt"
    bad.write_bytes(rewrite_meta((out / "last.ckpt").read_bytes(), lambda m: dict(
        m, arrays=[a for a in m["arrays"] if a["name"] != "param/w1"])))
    assert run("eval", "--checkpoint", str(bad), "--data", str(synth_bundle),
               "--out", str(tmp_path / "e.json")) == EXIT_CHECKPOINT


def write_events(tmp_path):
    """Six three-item sessions over items a, b, c as a raw event file."""
    raw = tmp_path / "events.tsv"
    raw.write_text("".join(f"s{s}\t{k}\t{s * 3 + i}\n" for s in range(6)
                           for i, k in enumerate("abc")))
    return raw


def test_preprocess_min_prefix_len_zero_exit_code(tmp_path):
    raw, out = write_events(tmp_path), tmp_path / "bundle.json"
    assert run("preprocess", "--in", str(raw), "--out", str(out),
               "--min-prefix-len", "0") == EXIT_CONFIG
    assert not out.exists()
    assert run("preprocess", "--in", str(raw), "--out", str(out),
               "--min-item-freq", "1") == EXIT_OK


@pytest.mark.parametrize("flag", ["--min-session-len", "--min-item-freq"])
def test_preprocess_min_count_zero_exit_code(tmp_path, flag):
    raw, out = write_events(tmp_path), tmp_path / "bundle.json"
    assert run("preprocess", "--in", str(raw), "--out", str(out), flag, "0") == EXIT_CONFIG
    assert not out.exists()


def oov_test_prefix(doc):
    """Set the last item of the first test prefix to n."""
    items = column(doc, "test", "items")
    items[column(doc, "test", "lengths")[0] - 1] = len(doc["vocab"])
    set_column(doc, "test", "items", items)


BROKEN_BUNDLE_CASES = {
    "missing-sessions-train": drop_blocks("sessions_train/"),
    "oov-test-prefix": on_doc(oov_test_prefix),
    "oov-test-target": edit_column("test", "values", put(0, lambda n: n + 5)),
}


@pytest.mark.parametrize("case", BROKEN_BUNDLE_CASES)
def test_broken_bundle_exit_code(tmp_path, synth_bundle, case):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(BROKEN_BUNDLE_CASES[case](synth_bundle.read_bytes()))
    assert run("build-graph", "--in", str(bad), "--out",
               str(tmp_path / "g.json")) == EXIT_DATA
    assert run("train", "--data", str(bad), "--out", str(tmp_path / "run"),
               "--d", "4", "--layers", "0", "--epochs", "1") == EXIT_DATA


@pytest.fixture(scope="module")
def graph_bundle(tmp_path_factory, synth_bundle):
    """The bytes of the synth bundle with its graph attached."""
    path = tmp_path_factory.mktemp("graph") / "g.json"
    assert run("build-graph", "--in", str(synth_bundle), "--out", str(path)) == EXIT_OK
    return path.read_bytes()


@pytest.mark.parametrize("case", BROKEN_BUNDLES)
def test_broken_column_exit_code(tmp_path, graph_bundle, checkpoint, capsys, case):
    mutate, message = BROKEN_BUNDLES[case]
    bad = tmp_path / "bad.json"
    bad.write_bytes(mutate(graph_bundle))
    out = tmp_path / "out"
    for argv in (["build-graph", "--in", str(bad), "--out", str(out)],
                 ["train", "--data", str(bad), "--out", str(out), "--d", "4",
                  "--layers", "0", "--epochs", "1"],
                 ["eval", "--data", str(bad), "--checkpoint", str(checkpoint),
                  "--out", str(out)]):
        capsys.readouterr()
        assert run(*argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: bundle ") and message in err
        assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("case", ["nan-weight", "zero-weight", "negative-weight",
                                  "repeated-edge"])
def test_bad_bundle_graph_exit_code(tmp_path, synth_bundle, case):
    with_graph = tmp_path / "g.json"
    assert run("build-graph", "--in", str(synth_bundle), "--out",
               str(with_graph)) == EXIT_OK
    with_graph.write_bytes(BROKEN_BUNDLES[case][0](with_graph.read_bytes()))
    assert run("train", "--data", str(with_graph), "--out", str(tmp_path / "run"),
               "--d", "4", "--layers", "0", "--epochs", "1") == EXIT_DATA
    assert not (tmp_path / "run").exists()


def test_format_1_bundle_exit_code(tmp_path, graph_bundle):
    # format 2 (base64 columns) is JSON too, and refused alike
    for old_doc in (format_1_doc, format_2_doc):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(old_doc(read_doc(graph_bundle))))
        proc = subprocess.run([sys.executable, "-m", "sessrec.cli", "train", "--data",
                               str(old), "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == EXIT_DATA and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("data error: bundle format version 1 or 2 ")
        assert "`sessrec preprocess` or `sessrec synth`" in proc.stderr


@pytest.mark.parametrize("flag,value", [("--lr", "-1"), ("--lr", "0"),
                                        ("--epochs", "-1"), ("--l2", "-0.5"),
                                        ("--epsilon", "0"), ("--tau", "nan"),
                                        ("--lr", "nan"), ("--beta", "inf"),
                                        ("--l2", "inf"), ("--seed", "-1")])
def test_bad_hyperparameter_exit_code(tmp_path, synth_bundle, flag, value):
    assert run("train", "--data", str(synth_bundle), "--out", str(tmp_path / "x"),
               "--d", "4", "--layers", "0", flag, value) == EXIT_CONFIG
    assert not (tmp_path / "x" / "metrics.json").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("ks", ["0", "10,x"])
def test_bad_ks_exit_code(tmp_path, synth_bundle, command, ks):
    if command == "train":
        argv = ["train", "--data", str(synth_bundle), "--out", str(tmp_path / "x"),
                "--d", "4", "--layers", "0", "--epochs", "1"]
    else:
        argv = ["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--data",
                str(synth_bundle), "--out", str(tmp_path / "m.json")]
    assert run(*argv, "--ks", ks) == EXIT_CONFIG
    assert not (tmp_path / "x").exists() and not (tmp_path / "m.json").exists()


def test_build_graph_bad_epsilon_exit_code(tmp_path, synth_bundle):
    out = tmp_path / "g.json"
    assert run("build-graph", "--in", str(synth_bundle), "--out", str(out),
               "--epsilon", "0") == EXIT_CONFIG
    assert not out.exists()


def test_epsilon_past_every_session_runs(tmp_path, synth_bundle):
    huge = str(10 ** 9)
    assert run("build-graph", "--in", str(synth_bundle), "--out", str(tmp_path / "g.json"),
               "--epsilon", huge) == EXIT_OK
    assert run("train", "--data", str(synth_bundle), "--out", str(tmp_path / "run"),
               "--d", "4", "--layers", "1", "--epochs", "1", "--epsilon", huge) == EXIT_OK


@pytest.mark.parametrize("flag,value", [("--d", "0"), ("--layers", "-1"), ("--n", "0"),
                                        ("--tau", "nan"), ("--seed", "-1"),
                                        ("--tolerance", "nan"), ("--tolerance", "-1")])
def test_gradcheck_bad_config_exit_code(flag, value):
    assert run("gradcheck", flag, value) == EXIT_CONFIG


def test_synth_chains_must_fit_exit_code(tmp_path):
    assert run("synth", "--out", str(tmp_path / "s.json"), "--n-items",
               "50") == EXIT_CONFIG


@pytest.mark.parametrize("flag,value", [("--sessions", "0"), ("--sessions", "1"),
                                        ("--chain-len", "1")])
def test_synth_bad_size_exit_code(tmp_path, flag, value):
    assert run("synth", "--out", str(tmp_path / "s.json"), flag, value) == EXIT_CONFIG
    assert not (tmp_path / "s.json").exists()


def test_synth_negative_seed_exit_code(tmp_path):
    assert run("synth", "--out", str(tmp_path / "s.json"), "--seed", "-1") == EXIT_CONFIG
    assert not (tmp_path / "s.json").exists()


README = Path(__file__).resolve().parents[1] / "README.md"
HYPER_FIELDS = [f.name for f in dataclasses.fields(Hyperparams)]


def readme_commands():
    return [line.split("#")[0].strip() for line in README.read_text().splitlines()
            if line.startswith("sessrec ")]


def command_flags(command="train"):
    """{first option string: argparse action} for every option of `sessrec COMMAND`."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a for a in sub.choices[command]._actions if a.option_strings}


def test_every_hyperparameter_is_the_dest_of_one_train_flag():
    dests = Counter(a.dest for a in command_flags().values())
    assert {name: dests[name] for name in HYPER_FIELDS} == dict.fromkeys(HYPER_FIELDS, 1)


CONFIG_COMMANDS = [("synth", SynthSpec, []), ("preprocess", PreprocessConfig, ["--in", "e"]),
                   ("build-graph", GraphConfig, ["--in", "b"])]


@pytest.mark.parametrize("command, cls, required", CONFIG_COMMANDS,
                         ids=[c for c, _, _ in CONFIG_COMMANDS])
def test_each_config_flag_sets_one_field_and_defaults_come_from_the_class(command, cls,
                                                                         required):
    fields = {f.name for f in dataclasses.fields(cls)}
    dests = Counter(a.dest for a in command_flags(command).values())
    assert {name: dests[name] for name in fields & set(dests)} == \
        dict.fromkeys(fields & set(dests), 1)
    # the other flags name an input, an output or an action, not a setting
    assert set(dests) - fields <= {"help", "infile", "out", "include_test", "export"}
    args = build_parser().parse_args([command, *required, "--out", "o"])
    assert config_from_args(cls, args) == cls()
    assert fields.isdisjoint(vars(args))


@pytest.mark.parametrize("command", ["synth", "train"])
def test_size_that_cannot_be_allocated_exit_code(tmp_path, synth_bundle, capsys, command):
    # 10**15 rows take petabytes, more than any 64-bit address space maps, so
    # the first allocation fails at once and nothing is allocated
    flags = {"synth": ["--n-items", str(10 ** 15)],
             "train": ["--data", str(synth_bundle), "--max-session-len", str(10 ** 15)]}
    assert run(command, "--out", str(tmp_path / "out"), *flags[command]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: cannot allocate")


def test_readme_flag_table_matches_the_parser():
    rows = re.findall(r"^\| `(--[a-z0-9-]+)` \| `([a-z0-9_]+)(: false)?` \|$",
                      README.read_text(), re.MULTILINE)
    table = {flag: (key, bool(false)) for flag, key, false in rows}
    want = {flag: (a.dest, a.const is False) for flag, a in command_flags().items()
            if a.dest in HYPER_FIELDS}
    assert len(rows) == len(table) and table == want


@pytest.mark.parametrize("cls", [Hyperparams, PreprocessConfig, SynthSpec, GraphConfig])
def test_configs_are_frozen(cls):
    config, name = cls(), dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, getattr(config, name))


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_empty_test_set_exit_code(tmp_path, capsys):
    # two synthetic sessions leave no test window, so no test examples
    bundle = tmp_path / "b.json"
    assert run("synth", "--out", str(bundle), "--sessions", "2", "--seed", "1") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n_test_examples"] == 0
    small = ("--d", "4", "--layers", "1")
    assert run("train", "--data", str(bundle), "--out", str(tmp_path / "r"),
               "--epochs", "1", *small) == EXIT_DATA
    assert capsys.readouterr().err == "data error: empty test set\n"
    # refused before the first batch: the log holds no batch record
    log = (tmp_path / "r" / "train.log").read_text().splitlines()
    assert not [line for line in log if json.loads(line)["kind"] == "batch"]
    assert run("train", "--data", str(bundle), "--out", str(tmp_path / "r0"),
               "--epochs", "0", *small) == EXIT_OK
    assert run("eval", "--checkpoint", str(tmp_path / "r0" / "last.ckpt"),
               "--data", str(bundle), "--out", str(tmp_path / "e.json")) == EXIT_DATA
    assert capsys.readouterr().err == "data error: empty test set\n"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, synth_bundle):
    out = tmp_path_factory.mktemp("run")
    assert run("train", "--data", str(synth_bundle), "--out", str(out), "--d", "4",
               "--layers", "1", "--epochs", "1", "--batch", "4") == EXIT_OK
    return out / "last.ckpt"


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_bundle_version_not_an_integer_exit_code(tmp_path, synth_bundle, checkpoint, capsys,
                                                 version):
    # JSON true and 1.0 both compare equal to 1
    bundle = tmp_path / "b.json"
    bundle.write_bytes(rewrite_meta(synth_bundle.read_bytes(),
                                    lambda m: dict(m, format_version=version)))
    assert run("eval", "--checkpoint", str(checkpoint), "--data", str(bundle),
               "--out", str(tmp_path / "e.json")) == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: unsupported bundle format version "
                                       f"{version!r}\n")


def first_array(edit):
    """A metadata edit that passes the first array spec through edit."""
    return lambda m: dict(m, arrays=[edit(m["arrays"][0]), *m["arrays"][1:]])


HEADER_EDITS = {
    "version-bool": lambda m: dict(m, format_version=True),
    "version-float": lambda m: dict(m, format_version=1.0),
    "rows-string": first_array(lambda a: dict(a, rows=str(a["rows"]))),
    "cols-float": first_array(lambda a: dict(a, cols=float(a["cols"]))),
    "offset-string": first_array(lambda a: dict(a, offset=str(a["offset"]))),
    "adam-t-string": lambda m: dict(m, adam_t="x"),
    "adam-t-fraction": lambda m: dict(m, adam_t=-5.5),
    "adam-t-negative": lambda m: dict(m, adam_t=-1),
    "adam-t-bool": lambda m: dict(m, adam_t=True),
}


@pytest.mark.parametrize("edit", HEADER_EDITS.values(), ids=HEADER_EDITS.keys())
def test_checkpoint_header_not_an_integer_exit_code(tmp_path, synth_bundle, checkpoint,
                                                    capsys, edit):
    # int() reads "1" and 4.0 as sizes, and JSON true and 1.0 compare equal to 1
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_meta(checkpoint.read_bytes(), edit))
    out = tmp_path / "e.json"
    assert run("eval", "--checkpoint", str(bad), "--data", str(synth_bundle),
               "--out", str(out)) == EXIT_CHECKPOINT
    assert capsys.readouterr().err.startswith("checkpoint error: ")
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), 1e200], ids=["nan", "overflow"])
def test_eval_non_finite_scores_exit_code(tmp_path, synth_bundle, checkpoint, capsys,
                                          recwarn, value):
    # no comparison with NaN holds, so NaN scores once ranked every target first
    # and scored P@K = MRR@K = 1; 1e200 overflows the scores on the way to NaN
    params, _, hyper, vhash = TR.load_checkpoint(checkpoint)
    params["item_emb"].data[:] = value
    broken = tmp_path / "broken.ckpt"
    TR.save_checkpoint(broken, params, None, hyper, vhash)
    out = tmp_path / "e.json"
    assert run("eval", "--checkpoint", str(broken), "--data", str(synth_bundle),
               "--out", str(out)) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric error: a score is not finite, so no rank is defined\n"
    assert runtime_warnings(recwarn) == []
    assert not out.exists()

@pytest.mark.parametrize("name", [name for name, _ in M.param_shapes(1, Hyperparams(num_layers=1))])
def test_eval_nan_in_any_parameter_exit_code(tmp_path, synth_bundle, checkpoint, capsys,
                                             recwarn, name):
    # ranking skips the check of every score when the session embeddings and
    # the item table bound them far below the float64 range; a NaN in any
    # parameter must still end in exit 5
    params, _, hyper, vhash = TR.load_checkpoint(checkpoint)
    params[name].data[0, 0] = np.nan
    broken = tmp_path / "broken.ckpt"
    TR.save_checkpoint(broken, params, None, hyper, vhash)
    out = tmp_path / "e.json"
    assert run("eval", "--checkpoint", str(broken), "--data", str(synth_bundle),
               "--out", str(out)) == EXIT_NUMERIC
    assert capsys.readouterr() == ("", "numeric error: a score is not finite, so no rank "
                                       "is defined\n")
    assert runtime_warnings(recwarn) == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "train", "build-graph"])
def test_bundle_not_utf8_exit_code(tmp_path, synth_bundle, checkpoint, capsys, command):
    # a bundle's bytes saved as UTF-16 text start with ff fe, not the magic
    bundle = tmp_path / "utf16.json"
    bundle.write_bytes(synth_bundle.read_bytes().decode("latin-1").encode("utf-16"))
    argv = {"eval": ["--checkpoint", str(checkpoint), "--data", str(bundle),
                     "--out", str(tmp_path / "e.json")],
            "train": ["--data", str(bundle), "--out", str(tmp_path / "run"), "--d", "4",
                      "--layers", "1", "--epochs", "1"],
            "build-graph": ["--in", str(bundle), "--out", str(tmp_path / "g.json")]}
    assert run(command, *argv[command]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read bundle {bundle}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_events_not_utf8_exit_code(tmp_path, capsys):
    events = tmp_path / "events.tsv"
    events.write_bytes(b"s1\ta\t1\ns1\tb\xff\t2\n")
    assert run("preprocess", "--in", str(events), "--out", str(tmp_path / "b.json"),
               "--min-item-freq", "1") == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {events}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "b.json").exists()


def test_config_not_utf8_exit_code(tmp_path, synth_bundle, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff{}")
    assert run("train", "--data", str(synth_bundle), "--out", str(tmp_path / "run"),
               "--config", str(config)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed config {config}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# {dir} is an existing directory and {file} an existing file
@pytest.mark.parametrize("argv,path", [
    ("eval --checkpoint {ckpt} --data {data} --out {dir}", "{dir}"),
    ("eval --checkpoint {ckpt} --data {data} --out {file}/e.json", "{file}/e.json"),
    ("synth --out {dir}", "{dir}"),
    ("build-graph --in {data} --out {dir}", "{dir}"),
    ("build-graph --in {data} --out {tmp}/g.json --export {dir}", "{dir}"),
    ("train --data {data} --out {file} --d 4 --layers 1 --epochs 1", "{file}"),
], ids=["eval_out_dir", "eval_out_under_file", "synth_out_dir", "build_graph_out_dir",
        "build_graph_export_dir", "train_out_file"])
def test_unwritable_output_exit_code(tmp_path, synth_bundle, checkpoint, capsys, argv, path):
    names = {"ckpt": checkpoint, "data": synth_bundle, "dir": tmp_path / "dir",
             "file": tmp_path / "file", "tmp": tmp_path}
    names["dir"].mkdir()
    names["file"].write_text("")
    assert run(*[arg.format(**names) for arg in argv.split()]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {path.format(**names)}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_eval_on_the_tile_pool_matches_one_worker(tmp_path, synth_bundle, checkpoint,
                                                  monkeypatch, tile_pool, capsys):
    # the checkpoint's batch of 4 cuts the test set into several chunks
    non_daemon = {t for t in threading.enumerate() if not t.daemon}
    outputs = {}
    for workers in (2, 1):
        monkeypatch.setattr(T, "WORKERS", workers)
        out = tmp_path / f"e{workers}.json"
        assert run("eval", "--checkpoint", str(checkpoint), "--data", str(synth_bundle),
                   "--out", str(out)) == EXIT_OK
        outputs[workers] = (out.read_bytes(), capsys.readouterr().out)
        assert {t for t in threading.enumerate() if not t.daemon} <= non_daemon
        if workers == 2:
            assert tile_pool
            submitted = len(tile_pool)
    assert len(tile_pool) == submitted
    assert outputs[2] == outputs[1]


def test_train_on_the_tile_pool_matches_one_worker(tmp_path, synth_bundle, monkeypatch,
                                                   tile_pool):
    # 30 items in tiles of 10 rows: attention and SPL run 3 tiles on 2 threads
    monkeypatch.setattr(T, "TILE_ENTRIES", 300)
    non_daemon = {t for t in threading.enumerate() if not t.daemon}
    outputs = {}
    for workers in (2, 1):
        monkeypatch.setattr(T, "WORKERS", workers)
        out_dir = tmp_path / f"w{workers}"
        assert run("train", "--data", str(synth_bundle), "--out", str(out_dir),
                   "--d", "8", "--layers", "2", "--epochs", "2", "--batch", "16",
                   "--seed", "3") == EXIT_OK
        outputs[workers] = [(out_dir / name).read_bytes()
                            for name in ("metrics.json", "best.ckpt", "last.ckpt")]
        assert {t for t in threading.enumerate() if not t.daemon} <= non_daemon
        if workers == 2:
            assert tile_pool
            submitted = len(tile_pool)
    assert len(tile_pool) == submitted
    assert outputs[2] == outputs[1]
