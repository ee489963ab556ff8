import copy
import json
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import idsapprox
from idsapprox import cli, config
from idsapprox.cli import main
from idsapprox.cayley import FreeAbelian, folner_set
from idsapprox.colouring import PercolationFrequencies
from idsapprox.config import SCHEMA, ConfigError, RunConfig, schema_errors, validate_config
from idsapprox.ergodic import StepFunction


def run(args):
    return main([str(a) for a in args])


def read(path: Path):
    return path.read_text()


def test_schema_rejects_bad_config(tmp_path, capsys):
    for d in (0, 9):  # below the minimum; above the maximum (packing needs d <= 8)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"group": "zd", "d": d, "colouring": {"kind": "trivial"}, "operator": {"kind": "adjacency"}}))
        rc = run(["ids", "--config", bad, "--out", tmp_path / "out"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["path"] == "$.d"
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    # Python's json module accepts these non-standard constants
    nan = tmp_path / "nan.json"
    nan.write_text(
        '{"group": "zd", "d": 1, "colouring": {"kind": "trivial"},'
        ' "operator": {"kind": "adjacency"}, "tolerance": NaN}'
    )
    inf = tmp_path / "inf.json"
    inf.write_text(
        '{"group": "zd", "d": 1, "colouring": {"kind": "trivial"},'
        ' "operator": {"kind": "hop_table", "params": {"table": {"1": Infinity, "-1": 1.0}}}}'
    )
    workers = tmp_path / "workers.json"
    workers.write_text(json.dumps(dict(json.loads(cli._preset_text("h3_adjacency")), workers=0)))
    good = ["ids", "--preset", "h3_adjacency"]
    for args, path in [
        (good + ["--folner-j", "3,,4"], "$.folner_j"),
        (good + ["--folner-j", "a"], "$.folner_j"),
        (good + ["--tile-n", "x"], "$.tile_n"),
        (good + ["--seed", "abc"], "$.colouring.seed"),
        (good + ["--seed", "1.5"], "$.colouring.seed"),
        (["ids", "--config", workers], "$.workers"),
        (["ids", "--config", array, "--seed", "3"], "$"),
        (["ids", "--config", nan], "$"),
        (["ids", "--config", inf], "$"),
    ]:
        assert run(args + ["--out", tmp_path / "out"]) == 2
        assert json.loads(capsys.readouterr().err)["path"] == path


def test_unreadable_config_exits_2(tmp_path, capsys):
    directory = tmp_path / "config_dir"
    directory.mkdir()
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe")  # not UTF-8
    for path in (directory, undecodable):
        assert run(["ids", "--config", path, "--out", tmp_path / "out"]) == 2
        assert json.loads(capsys.readouterr().err)["path"] == "$"


@pytest.mark.parametrize(
    "command, preset, below",
    [("folner-audit", "h3_adjacency", ""), ("ids", "example4_1", "sub")],
)
def test_out_at_or_under_a_file_exits_2(tmp_path, capsys, command, preset, below):
    # --out names a file, or lies under one: rejected before any work
    existing = tmp_path / "existing"
    existing.write_text("kept")
    out = existing / below if below else existing
    assert run([command, "--preset", preset, "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["path"] == "--out"
    assert str(existing) in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
    assert existing.read_text() == "kept"


def test_preset_rejects_non_finite_numbers(tmp_path, capsys, monkeypatch):
    text = cli._preset_text("example4_1").replace('"tile_n"', '"tolerance": -Infinity, "tile_n"')
    monkeypatch.setattr(cli, "_preset_text", lambda name: text)
    assert run(["ids", "--preset", "example4_1", "--out", tmp_path / "out"]) == 2
    assert json.loads(capsys.readouterr().err)["path"] == "$"


FULL_CONFIG = {
    "group": "zd",
    "d": 2,
    "tile_n": [1, 2],
    "folner_j": [3, 4],
    "folner": {"kind": "tiles", "sides": ["positive", "negative"], "scale": 3},
    "colouring": {"kind": "percolation", "seed": 1, "params": {"alphabet": ["a", "b"]}},
    "operator": {"kind": "adjacency", "params": {}},
    "frequencies": {"kind": "auto", "reference_j": 4},
    "tolerance": 1e-9,
    "seeds": [1, 2],
    "epsilons": [0.1, 0.0],
    "freq_window": 50,
    "freq_max_domain": 3,
    "volume_side": 20,
    "kernel_seed": 1,
    "emit_raw_counting": True,
    "emit_eigenvalues": False,
    "workers": 1,
}
MUTANTS = [0, -1, 1, 2.0, 2.5, 9, 1e-9, True, False, None, "x", "zd", "tiles", "positive",
           [], [0], [1, 2.0], ["negative"], {}, {"kind": "x"}, {"kind": "trivial"}]


def _mutate(obj, rng):
    """Replace, delete or add one entry somewhere inside obj (in place)."""
    parent, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node and rng.random() < 0.7:
        parent, key = node, rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        node = node[key]
    action = rng.choice(("replace", "delete", "add"))
    if action == "add" and isinstance(node, dict):
        node[rng.choice(["extra", "kind", "seed", "sides", "scale", "params"])] = copy.deepcopy(
            rng.choice(MUTANTS)
        )
    elif action == "delete" and parent is not None:
        del parent[key]
    elif parent is not None:
        parent[key] = copy.deepcopy(rng.choice(MUTANTS))


def _reference_path(obj):
    errors = sorted(
        jsonschema.Draft202012Validator(SCHEMA).iter_errors(obj), key=lambda e: list(e.absolute_path)
    )
    return tuple(errors[0].absolute_path) if errors else None


def _walker_path(obj):
    return min((path for path, _ in schema_errors(SCHEMA, obj)), default=None)


def test_schema_walker_matches_jsonschema():
    assert _walker_path(FULL_CONFIG) is None and _reference_path(FULL_CONFIG) is None
    for key, value, path in [
        ("d", 2.0, None),  # integral floats are integers
        ("d", True, ("d",)),  # booleans are not numbers
        ("tolerance", True, ("tolerance",)),
        ("tolerance", 0, ("tolerance",)),
        ("seeds", [1, 1.5], ("seeds", 1)),
        ("seeds", [-(2**63), 2**63 - 1], None),
        ("seeds", [1, 2**63], ("seeds", 1)),
        ("seeds", [-(2**63) - 1], ("seeds", 0)),
        ("colouring", dict(FULL_CONFIG["colouring"], seed=2**63), ("colouring", "seed")),
        ("colouring", dict(FULL_CONFIG["colouring"], seed=-(2**63)), None),
        ("folner", {"kind": "tiles", "sides": []}, ("folner", "sides")),
    ]:
        obj = dict(FULL_CONFIG, **{key: value})
        assert _reference_path(obj) == path
        assert _walker_path(obj) == path
    # a type failure hides the other keywords at its node
    assert [p for p, _ in schema_errors(SCHEMA, dict(FULL_CONFIG, d=-1.5))] == [("d",)]
    rng = random.Random(6)
    invalid = 0
    for _ in range(3000):
        obj = copy.deepcopy(FULL_CONFIG)
        for _ in range(rng.randint(1, 3)):
            _mutate(obj, rng)
        ref = _reference_path(obj)
        assert _walker_path(obj) == ref, obj
        invalid += ref is not None
    assert invalid > 1000


def test_cli_import_leaves_out_test_dependencies():
    src = str(Path(idsapprox.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import idsapprox.cli; "
        "print([m for m in ('scipy', 'jsonschema') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_commands_load_neither_numpy_ma_dataclasses_nor_openssl(tmp_path):
    # numpy 1.24 imports numpy.ma itself, so the baseline is taken after numpy;
    # OpenSSL comes in as hashlib's _hashlib
    src = str(Path(idsapprox.__file__).resolve().parents[1])
    code = f"""
import sys, numpy
before = set(sys.modules)
sys.path.insert(0, {src!r})
from idsapprox import cli
for command, preset in [
    ("ids", "example4_1"),
    ("folner-audit", "h3_adjacency"),
    ("percolation", "z2_percolation"),
    ("continuity", "z2_continuity"),
]:
    assert cli.main([command, "--preset", preset, "--out", {str(tmp_path)!r} + "/" + command]) == 0
print(sorted({{"numpy.ma", "dataclasses", "_hashlib"}} & (set(sys.modules) - before)))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_commands_run_on_numpy_alone(tmp_path, monkeypatch):
    """numpy is the only run-time dependency: every command runs with scipy
    and jsonschema unimportable, and never tries to import them."""
    import builtins

    tried = []
    real_import = builtins.__import__

    def recording_import(name, *args, **kwargs):
        tried.append(name.partition(".")[0])
        return real_import(name, *args, **kwargs)

    for name in ("scipy", "jsonschema"):
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(builtins, "__import__", recording_import)
    for command, preset in [
        ("ids", "example4_1"),
        ("folner-audit", "h3_adjacency"),
        ("percolation", "z2_percolation"),
        ("continuity", "z2_continuity"),
    ]:
        assert run([command, "--preset", preset, "--out", tmp_path / command]) == 0
    assert not {"scipy", "jsonschema"} & set(tried)


def test_step_csv_matches_per_value_format(tmp_path):
    breakpoints = [-1e300, -2.0, -1e-300, -0.0, 1e-300, 0.1, 3.0, 1e300]
    values = [-0.0, 1.0, 1e-300, 2.0, 1e300, -5.0, 2.0 / 3.0, 7.0]
    step = StepFunction(breakpoints, values)
    cli._write_step_csv(tmp_path / "step.csv", step)
    rows = [f"{cli._fmt(b)},{cli._fmt(v)}" for b, v in zip(step.breakpoints, step.values)]
    assert (tmp_path / "step.csv").read_text() == "\n".join(["breakpoint,value"] + rows) + "\n"
    assert (tmp_path / "step.csv").read_text().splitlines()[4] == "-0,2"
    cli._write_step_csv(tmp_path / "empty.csv", StepFunction([], []))
    assert (tmp_path / "empty.csv").read_text() == "breakpoint,value\n"


BAD_PARAMS = {
    "hop_table_value": ({}, {"kind": "hop_table", "params": {"table": {"1,0": "x", "-1,0": 1.0}}}),
    "hop_table_not_a_table": ({}, {"kind": "hop_table", "params": {"table": 5}}),
    "percolation_without_retained": ({}, {"kind": "percolation"}),
    "retained_outside_alphabet": ({}, {"kind": "percolation", "params": {"retained": ["purple"]}}),
    "asymmetric_hop_table": ({}, {"kind": "hop_table", "params": {"table": {"1,0": 1.0, "-1,0": 2.0}}}),
    "short_offset": ({}, {"kind": "hop_table", "params": {"table": {"1": 1.0, "-1": 1.0}}}),
    "weights": ({"params": {"weights": ["1/3", "1/3"]}}, {"kind": "adjacency"}),
    "explicit_default": (
        {"kind": "explicit", "params": {"alphabet": ["open", "closed"], "default": "purple"}},
        {"kind": "adjacency"},
    ),
    "periodic_table": (
        {"kind": "periodic", "params": {"tile_n": 2, "table": {"0,0": "open"}}},
        {"kind": "adjacency"},
    ),
    # a string is not a list of symbols, though iterating it gives characters
    "explicit_string_alphabet": (
        {"kind": "explicit", "params": {"alphabet": "ab", "default": "a"}},
        {"kind": "adjacency"},
    ),
    "percolation_string_alphabet": (
        {"params": {"alphabet": "open"}},
        {"kind": "percolation", "params": {"retained": ["o"]}},
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_bad_params_exit_2(tmp_path, capsys, case):
    colouring, op = BAD_PARAMS[case]
    cfg = {
        "group": "zd",
        "d": 2,
        "colouring": {"kind": "percolation", "seed": 1, "params": {"alphabet": ["open", "closed"]}},
        "operator": op,
        "folner_j": [3],
        "tile_n": [1],
    }
    cfg["colouring"].update(colouring)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run(["ids", "--config", p, "--out", tmp_path / "out"]) == 2
    err = json.loads(capsys.readouterr().err)
    # the colouring is built first, so its params are blamed whenever a case sets any
    assert err["path"] == ("$.colouring.params" if colouring else "$.operator.params")
    assert not (tmp_path / "out").exists()


def test_percolation_command_needs_percolation_colouring(tmp_path, capsys):
    out = tmp_path / "perc"
    assert run(["percolation", "--preset", "example4_1", "--out", out]) == 2
    assert json.loads(capsys.readouterr().err)["path"] == "$.colouring.kind"
    assert not out.exists()


def test_seed_flag_with_non_object_colouring_exits_2(tmp_path, capsys):
    cfg = {"group": "zd", "d": 1, "operator": {"kind": "adjacency"}, "folner_j": [3]}
    for colouring in ("trivial", 5, ["trivial"], None):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**cfg, "colouring": colouring}))
        out = tmp_path / "out"
        assert run(["ids", "--config", p, "--seed", 3, "--out", out]) == 2
        assert json.loads(capsys.readouterr().err)["path"] == "$.colouring"
        assert not out.exists()
    # an absent colouring still takes the seed (and is then missing its kind)
    p.write_text(json.dumps(cfg))
    assert run(["ids", "--config", p, "--seed", 3, "--out", out]) == 2
    assert json.loads(capsys.readouterr().err)["path"].startswith("$.colouring")


def test_seeds_outside_int64_exit_2(tmp_path, capsys):
    cfg = json.loads(read(small_percolation_config(tmp_path, seeds=(1,), window=10)))
    p = tmp_path / "cfg.json"
    for colouring_seed, seeds, flag, path in [
        (2**63, [1], [], "$.colouring.seed"),
        (1, [1], ["--seed", 2**63], "$.colouring.seed"),
        (1, [1, 2**63], [], "$.seeds[1]"),
        (1, [-(2**63) - 1], [], "$.seeds[0]"),
    ]:
        p.write_text(json.dumps({**cfg, "colouring": {**cfg["colouring"], "seed": colouring_seed}, "seeds": seeds}))
        out = tmp_path / "bad"
        assert run(["percolation", "--config", p, "--out", out, *flag]) == 2
        assert json.loads(capsys.readouterr().err)["path"] == path
        assert not out.exists()
    # both ends of the signed 64-bit range still run, as --seed and in seeds
    ends = [2**63 - 1, -(2**63)]
    p.write_text(json.dumps({**cfg, "seeds": ends}))
    for seed in ends:
        out = tmp_path / str(seed)
        assert run(["percolation", "--config", p, "--seed", seed, "--out", out]) == 0
        assert all((out / f"approximant_seed{s}_j6.csv").exists() for s in ends)


def test_cells_do_not_depend_on_earlier_cells(tmp_path):
    """Every j gives the same files and rows alone as beside other volumes,
    where the smaller volumes reuse the spectra of the largest."""

    def cells(out, j):
        files = {f.name: f.read_bytes() for f in sorted(out.glob(f"*_j{j}.csv"))}
        rows = json.loads((out / "certificates.json").read_text())["rows"]
        summary = json.loads((out / "summary.json").read_text())["per_j"]
        return files, [r for r in rows if r["j"] == j], [r for r in summary if r["j"] == j]

    for preset, js, files, extra in (
        ("example4_1", "2,5", 6, []),
        ("z2_percolation", "30,40,50", 1, []),
        ("h3_adjacency", "3,4,5", 1, ["--tile-n", "1,2"]),
    ):
        full = tmp_path / preset
        assert run(["ids", "--preset", preset, "--folner-j", js, "--out", full] + extra) == 0
        for j in map(int, js.split(",")):
            alone = tmp_path / f"{preset}_{j}"
            assert run(["ids", "--preset", preset, "--folner-j", j, "--out", alone] + extra) == 0
            got, want = cells(full, j), cells(alone, j)
            assert len(got[0]) == files and got[0] == want[0], (preset, j)
            # example4_1 reads its empirical frequencies at the largest j, and so its rows
            if preset != "example4_1" or j == 5:
                assert got[1] and got[1:] == want[1:], (preset, j)


def test_schema_error_reports_path():
    with pytest.raises(ConfigError) as exc:
        validate_config(
            {
                "group": "zd",
                "d": 1,
                "colouring": {"kind": "nope"},
                "operator": {"kind": "adjacency"},
            }
        )
    assert "colouring" in str(exc.value)


def test_percolation_requires_seed():
    with pytest.raises(ConfigError) as exc:
        validate_config(
            {
                "group": "zd",
                "d": 2,
                "colouring": {"kind": "percolation"},
                "operator": {"kind": "adjacency"},
            }
        )
    assert exc.value.path == "$.colouring.seed"


def test_interval_requires_z1():
    with pytest.raises(ConfigError):
        validate_config(
            {
                "group": "h3",
                "colouring": {"kind": "trivial"},
                "operator": {"kind": "adjacency"},
                "folner": {"kind": "interval"},
            }
        )


def test_example4_1_preset_reproduces_tables(tmp_path):
    out = tmp_path / "ex41"
    assert run(["ids", "--preset", "example4_1", "--out", out, "--folner-j", "2,5,10"]) == 0
    nv = read(out / "counting_negative_j5.csv").strip().splitlines()
    assert nv[0] == "breakpoint,value"
    rows = [line.split(",") for line in nv[1:]]
    assert [r[0] for r in rows] == ["-1", "0", "1"]
    assert float(rows[0][1]) == pytest.approx(1 / 3)
    assert float(rows[2][1]) == 1.0
    nu = read(out / "counting_positive_j5.csv").strip().splitlines()
    assert nu[1:] == ["0,1"]
    certs = json.loads(read(out / "certificates.json"))
    assert certs["errors"] == []
    assert {row["side"] for row in certs["rows"]} == {"negative", "positive"}
    summary = json.loads(read(out / "summary.json"))
    assert len(summary["per_j"]) == 6


def test_example4_7_preset_multiplicities(tmp_path):
    out = tmp_path / "ex47"
    assert run(["ids", "--preset", "example4_7", "--out", out, "--folner-j", "34,40"]) == 0
    for j in (34, 40):
        # unshrunk counting table: jump at +-1 has multiplicity exactly 33
        lines = read(out / f"counting_negative_j{j}.csv").strip().splitlines()[1:]
        table = {float(a): float(b) for a, b in (line.split(",") for line in lines)}
        assert round(table[-1.0] * 3 * j) == 33
        assert round((table[1.0] - table[0.0]) * 3 * j) == 33


def test_h3_preset_small(tmp_path):
    out = tmp_path / "h3"
    rc = run(
        ["ids", "--preset", "h3_adjacency", "--out", out, "--folner-j", "2,3", "--tile-n", "1,2"]
    )
    assert rc == 0
    certs = json.loads(read(out / "certificates.json"))
    # j=2 shrinks to the empty volume and is reported as a per-cell error
    assert [e["j"] for e in certs["errors"]] == [2]
    assert len(certs["rows"]) == 2
    for row in certs["rows"]:
        assert row["j"] == 3 and row["total"] >= 0.0


def test_folner_audit_h3(tmp_path):
    out = tmp_path / "audit"
    assert run(["folner-audit", "--preset", "h3_adjacency", "--out", out, "--tile-n", "1,2,3,4"]) == 0
    rows = json.loads(read(out / "folner_audit.json"))["rows"]
    assert [r["sphere_size"] for r in rows] == [4, 34, 120, 292]
    assert rows[2]["tile_size"] == 81


def test_flags_go_on_either_side_of_the_command(tmp_path, capsys):
    outs = [tmp_path / name for name in ("after", "before", "around")]
    flags = ["--preset", "h3_adjacency", "--tile-n", "1,2"]
    assert run(["folner-audit", *flags, "--out", outs[0]]) == 0
    assert run([*flags, "--out", outs[1], "folner-audit"]) == 0
    assert run([*flags, "folner-audit", "--out", outs[2]]) == 0
    texts = {read(out / "folner_audit.json") for out in outs}
    assert len(texts) == 1
    parsed = cli.build_parser().parse_args(["--out", "o", "ids", "--seed", "3"])
    assert vars(parsed) == {
        "command": "ids", "config": None, "preset": None, "out": "o", "seed": "3",
        "folner_j": "", "tile_n": "",
    }
    for argv in (["audit", "--preset", "h3_adjacency", "--out", tmp_path / "x"], ["--out", tmp_path / "x"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    assert "invalid choice: 'audit'" in capsys.readouterr().err


def test_folner_audit_z2(tmp_path):
    cfg = {
        "group": "zd",
        "d": 2,
        "colouring": {"kind": "trivial"},
        "operator": {"kind": "adjacency"},
        "tile_n": [2, 5, 9],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "audit2"
    assert run(["folner-audit", "--config", p, "--out", out]) == 0
    rows = json.loads(read(out / "folner_audit.json"))["rows"]
    assert [r["sphere_size"] for r in rows] == [8, 20, 36]
    ratios = [r["ratio"] for r in rows]
    assert ratios == sorted(ratios, reverse=True)


def small_percolation_config(tmp_path, seeds=(1, 2, 3), window=40):
    cfg = {
        "group": "zd",
        "d": 2,
        "colouring": {
            "kind": "percolation",
            "seed": 20260810,
            "params": {"alphabet": ["open", "closed"]},
        },
        "operator": {"kind": "percolation", "params": {"retained": ["open"]}},
        "folner_j": [6],
        "tile_n": [1],
        "frequencies": {"kind": "analytic"},
        "seeds": list(seeds),
        "freq_window": window,
        "freq_max_domain": 3,
    }
    p = tmp_path / "perc_cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def _tree(out: Path) -> dict:
    return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}


def test_integral_floats_read_as_integers(tmp_path):
    # JSON Schema counts 3.0 as an integer; every command reads it as 3
    ints = {
        "group": "zd",
        "d": 2,
        "colouring": {"kind": "trivial"},
        "operator": {"kind": "adjacency"},
        "folner_j": [3, 4],
        "tile_n": [1, 2],
    }
    floats = {**ints, "d": 2.0, "folner_j": [3.0, 4], "tile_n": [1.0, 2]}
    perc = json.loads(read(small_percolation_config(tmp_path, window=6)))
    del perc["seeds"]  # the colouring seed is run
    perc["colouring"]["seed"] = 3
    perc_floats = {**perc, "colouring": {**perc["colouring"], "seed": 3.0}, "freq_window": 6.0}
    cases = [("ids", floats, ints), ("folner-audit", floats, ints), ("percolation", perc_floats, perc)]
    for command, with_floats, with_ints in cases:
        trees = []
        for name, cfg in (("floats", with_floats), ("ints", with_ints)):
            p = tmp_path / f"{command}_{name}.json"
            p.write_text(json.dumps(cfg))
            out = tmp_path / command / name
            assert run([command, "--config", p, "--out", out]) == 0
            trees.append(_tree(out))
        assert trees[0] == trees[1], command
    assert "approximant_tiles_j3.csv" in _tree(tmp_path / "ids" / "floats")
    assert "approximant_seed3_j6.csv" in _tree(tmp_path / "percolation" / "floats")


def test_percolation_runs_the_colouring_seed_without_seeds(tmp_path):
    cfg = json.loads(read(small_percolation_config(tmp_path, window=10)))
    del cfg["seeds"]
    cfg["colouring"]["seed"] = 3
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run(["percolation", "--config", p, "--out", tmp_path / "default"]) == 0
    assert [f.name for f in (tmp_path / "default").glob("approximant_*")] == ["approximant_seed3_j6.csv"]
    # --seed overrides it, as a one-seed ``seeds`` list would
    assert run(["percolation", "--config", p, "--seed", 5, "--out", tmp_path / "flag"]) == 0
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps({**cfg, "seeds": [5]}))
    assert run(["percolation", "--config", listed, "--out", tmp_path / "listed"]) == 0
    assert _tree(tmp_path / "flag") == _tree(tmp_path / "listed")


def test_trivial_colouring_has_the_analytic_provider():
    base = {"group": "zd", "d": 1, "colouring": {"kind": "trivial"}, "operator": {"kind": "adjacency"}}
    model = FreeAbelian(1)
    U = folner_set(model, 4).tile
    for kind in ("auto", "analytic"):
        cfg = RunConfig.from_dict({**base, "frequencies": {"kind": kind}})
        assert isinstance(cfg.frequency_provider(cfg.colouring(model), U), PercolationFrequencies)
    halfline = {**base, "colouring": {"kind": "halfline_mod3"}, "frequencies": {"kind": "analytic"}}
    cfg = RunConfig.from_dict(halfline)
    with pytest.raises(ConfigError) as exc:
        cfg.frequency_provider(cfg.colouring(model), U)
    assert exc.value.path == "$.frequencies.kind"


def test_percolation_command_small(tmp_path):
    out = tmp_path / "perc"
    rc = run(["percolation", "--config", small_percolation_config(tmp_path), "--out", out])
    assert rc == 0
    lines = read(out / "frequencies.csv").strip().splitlines()
    assert lines[0].startswith("seed,pattern")
    by_size = [l.split(",") for l in lines[1:]]
    singles = [r for r in by_size if r[2] == "1"]
    assert singles and all(float(r[5]) == 0.5 for r in singles)
    triples = [r for r in by_size if r[2] == "3"]
    assert triples and all(float(r[5]) == 0.125 for r in triples)
    assert (out / "approximant_seed1_j6.csv").exists()


def test_percolation_reruns_are_byte_identical(tmp_path):
    cfg = small_percolation_config(tmp_path, seeds=(1, 2), window=25)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["percolation", "--config", cfg, "--out", out]) == 0
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outs[0] == outs[1]


def test_continuity_command(tmp_path):
    out = tmp_path / "cont"
    assert run(["continuity", "--preset", "z2_continuity", "--out", out]) == 0
    lines = read(out / "continuity.csv").strip().splitlines()[1:]
    assert len(lines) == 3
    for line in lines:
        eps, gap, bound = (float(x) for x in line.split(","))
        assert gap <= bound


def test_continuity_rejects_oversized_restriction(tmp_path, capsys):
    # the H3 tile of side 20 has 20^4 points: too many for the dense hypothesis check
    assert run(["continuity", "--preset", "h3_adjacency", "--out", tmp_path / "out"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["path"] == "$.volume_side"
    assert str(cli.CONTINUITY_MAX_DIM) in err["message"]
    assert not (tmp_path / "out" / "continuity.csv").exists()


def unbuilt(model, n):
    raise AssertionError(f"tile {n} built")


OVERSIZED = {  # command, config changes and the path blamed; each asks for >= 10^10 points
    "folner_j": ("ids", {"folner_j": [3, 100000]}, "$.folner_j[1]"),
    "tile_n": ("ids", {"tile_n": [100000]}, "$.tile_n[0]"),
    "reference_j": ("ids", {"frequencies": {"kind": "empirical", "reference_j": 100000}}, "$.frequencies.reference_j"),
    "freq_window": ("percolation", {"freq_window": 100000}, "$.freq_window"),
    "periodic_tile_n": (
        "ids",
        {"colouring": {"kind": "periodic", "params": {"tile_n": 100000, "table": {"0,0": "a"}}}},
        "$.colouring.params.tile_n",
    ),
    "volume_side": ("continuity", {"volume_side": 100000}, "$.volume_side"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_sets_exit_2_before_any_set_is_built(tmp_path, capsys, monkeypatch, case):
    command, changes, path = OVERSIZED[case]
    cfg = json.loads(small_percolation_config(tmp_path).read_text()) | changes
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    monkeypatch.setattr(idsapprox.cayley, "TilingSpec", unbuilt)
    assert run([command, "--config", p, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["path"] == path
    assert json.loads(err)["message"].endswith(f"points, more than {config.MAX_SET_POINTS}")
    assert not (tmp_path / "out").exists()


def test_size_messages_print_integral_floats_as_integers(tmp_path, capsys):
    cfg = {"group": "zd", "d": 2.0, "colouring": {"kind": "trivial"}, "operator": {"kind": "adjacency"}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(cfg, folner_j=[5000.0])))
    assert run(["ids", "--config", p, "--out", tmp_path / "out"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["path"] == "$.folner_j[0]"
    assert err["message"] == f"5000 asks for a set of 25000000 points, more than {config.MAX_SET_POINTS}"


def test_set_size_cap_is_inclusive():
    cfg = {"group": "zd", "d": 1, "colouring": {"kind": "trivial"}, "operator": {"kind": "adjacency"}}
    validate_config(dict(cfg, folner_j=[config.MAX_SET_POINTS]))
    with pytest.raises(ConfigError) as exc:
        validate_config(dict(cfg, folner_j=[config.MAX_SET_POINTS + 1]))
    assert exc.value.path == "$.folner_j[0]"
    # an interval volume holds scale * j points
    interval = dict(cfg, folner={"kind": "interval", "scale": 3})
    validate_config(dict(interval, folner_j=[config.MAX_SET_POINTS // 3]))
    with pytest.raises(ConfigError):
        validate_config(dict(interval, folner_j=[config.MAX_SET_POINTS // 3 + 1]))


def test_percolation_checks_its_default_window(tmp_path, capsys, monkeypatch):
    # no freq_window: the default side 100 gives an H3 window of 10^8 points
    cfg = {
        "group": "h3",
        "colouring": {"kind": "percolation", "seed": 1},
        "operator": {"kind": "adjacency"},
        "folner_j": [2],
        "tile_n": [1],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    with monkeypatch.context() as patched:
        patched.setattr(idsapprox.cayley, "TilingSpec", unbuilt)
        assert run(["percolation", "--config", p, "--out", tmp_path / "perc"]) == 2
    assert json.loads(capsys.readouterr().err)["path"] == "$.freq_window"
    assert run(["ids", "--config", p, "--out", tmp_path / "ids"]) == 0


def test_empty_folner_list_warns(tmp_path):
    cfg = {
        "group": "zd",
        "d": 1,
        "colouring": {"kind": "trivial"},
        "operator": {"kind": "adjacency"},
        "folner_j": [],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "empty"
    assert run(["ids", "--config", p, "--out", out]) == 0
    certs = json.loads(read(out / "certificates.json"))
    assert certs["rows"] == []


def test_infeasible_cell_reported_run_continues(tmp_path):
    cfg = {
        "group": "zd",
        "d": 1,
        "colouring": {"kind": "halfline_mod3"},
        "operator": {"kind": "percolation", "params": {"retained": ["black"]}},
        "folner": {"kind": "interval", "sides": ["negative"], "scale": 1},
        "folner_j": [1, 9],
        "tile_n": [2],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "cells"
    assert run(["ids", "--config", p, "--out", out]) == 0
    certs = json.loads(read(out / "certificates.json"))
    assert len(certs["errors"]) == 1  # j=1 interval {-1} shrinks to nothing
    assert certs["errors"][0]["j"] == 1
    assert any(row["j"] == 9 for row in certs["rows"])


def test_hop_table_operator_from_config(tmp_path):
    cfg = {
        "group": "zd",
        "d": 2,
        "colouring": {"kind": "trivial"},
        "operator": {
            "kind": "hop_table",
            "params": {"table": {"0,0": 0.5, "1,0": 1.0, "-1,0": 1.0}},
        },
        "folner_j": [4],
        "tile_n": [2],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "hop"
    assert run(["ids", "--config", p, "--out", out]) == 0
    assert (out / "approximant_tiles_j4.csv").exists()


def test_cell_assertion_exit_code(tmp_path, monkeypatch):
    import idsapprox.cli as cli

    def boom(cfg, outdir):
        raise cli.CellAssertionError("forced failure")

    monkeypatch.setitem(cli.__dict__, "cmd_folner_audit", boom)
    # dispatch table is built inside main, so patch the function it looks up
    monkeypatch.setattr(cli, "cmd_folner_audit", boom)
    rc = cli.main(
        ["folner-audit", "--preset", "h3_adjacency", "--out", str(tmp_path / "x")]
    )
    assert rc == 3


def test_percolation_spectrum_export(tmp_path):
    cfg = small_percolation_config(tmp_path, seeds=(1,), window=25)
    out = tmp_path / "spec_out"
    assert run(["percolation", "--config", cfg, "--out", out]) == 0
    lines = read(out / "spectrum_seed1_j6_n1.csv").strip().splitlines()
    assert lines[0] == "pattern,count,empirical,analytic"
    counts = [int(l.split(",")[1]) for l in lines[1:]]
    assert sum(counts) == 36  # all singleton positions inside the 6x6 tile volume


def test_percolation_computes_each_spectrum_once(tmp_path, monkeypatch):
    # the certificate's frequency term and the spectrum CSV share one spectrum per
    # cell, and the frequency table reads one spectrum per seed and pattern domain
    from idsapprox import colouring
    from idsapprox.cayley import FreeAbelian, folner_set

    original = colouring.occurring_pattern_spectrum
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cli, colouring):
        monkeypatch.setattr(module, "occurring_pattern_spectrum", counted)
    cfg = json.loads(read(small_percolation_config(tmp_path, seeds=(1, 2), window=10)))
    cfg["tile_n"] = [1, 2]
    path = tmp_path / "two_tiles.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "once"
    assert run(["percolation", "--config", path, "--out", out]) == 0
    z2 = FreeAbelian(2)
    # sets over different model objects never compare equal, so compare their points
    window = tuple(folner_set(z2, 10).tile)
    volume_calls = [U for _, _, U in calls if tuple(U) != window]
    window_calls = sorted((C.seed, tuple(dom)) for C, dom, U in calls if tuple(U) == window)
    family = cli._pattern_family(z2, colouring.Alphabet(("open", "closed")), 3)
    domains = sorted({tuple(P.domain) for P in family})
    assert len(domains) == 6
    assert len(list(out.glob("spectrum_*.csv"))) == len(volume_calls) == 4
    assert window_calls == [(seed, domain) for seed in (1, 2) for domain in domains]


def test_percolation_computes_colour_free_facts_once(tmp_path, monkeypatch):
    # on the z2_perc_frequencies reference config: tile positions per (tile,
    # volume) pair, canonical translates per distinct tile, frequency products
    # and digests per distinct class
    import hashlib
    import math
    import types

    from idsapprox import cayley, colouring

    passes, translates, products, digests = [], [], [], []
    positions, right_translate = cayley._admissible_positions, cayley.FiniteSet.right_translate

    def count_positions(tile, U):
        if not any(tile is ball for ball in tile.model._ball_cache.values()):  # not a shrink
            passes.append((tuple(tile), tuple(U)))
        return positions(tile, U)

    def count_translates(self, x):
        translates.append(tuple(self))
        return right_translate(self, x)

    def count_products(factors):
        products.append(1)
        return math.prod(factors)

    def count_digests(*args, **kwargs):
        if "key" not in kwargs:  # the keyed ones hash colouring coordinates
            digests.append(1)
        return hashlib.blake2b(*args, **kwargs)

    monkeypatch.setattr(cayley, "_admissible_positions", count_positions)
    monkeypatch.setattr(cayley.FiniteSet, "right_translate", count_translates)
    # the module's view of math, with one function counted, and its blake2b
    counted_math = types.SimpleNamespace(**{**vars(math), "prod": count_products})
    monkeypatch.setattr(colouring, "math", counted_math)
    monkeypatch.setattr(colouring, "blake2b", count_digests)
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "z2_perc_frequencies"
    out = tmp_path / "once"
    assert run(["percolation", "--config", reference / "config.json", "--out", out]) == 0
    # 6 family domains over the window, 2 tiles over 2 volumes
    assert len(passes) == len(set(passes)) == 10
    # the family domains and the tiles, of which the one-point tile is the domain {e}
    assert len(translates) == len(set(translates)) == 7
    written = {line.split(",")[1] for line in read(out / "frequencies.csv").splitlines()[1:]}
    for f in out.glob("spectrum_*.csv"):
        written |= {line.split(",")[0] for line in read(f).splitlines()[1:]}
    # a numerator and a denominator product per class
    assert len(products) == 2 * len(written) == 2 * 50
    assert len(digests) == len(written) == 50


def test_percolation_seeds_share_no_colour_dependent_memo(tmp_path):
    # a run over three seeds writes the same per-seed files as three one-seed runs
    cfg = json.loads(read(small_percolation_config(tmp_path, seeds=(1, 2, 3), window=12)))
    cfg |= {"tile_n": [1, 2], "folner_j": [4, 6]}

    def percolation(seeds):
        path = tmp_path / f"seeds{len(seeds)}_{seeds[0]}.json"
        path.write_text(json.dumps(cfg | {"seeds": seeds}))
        out = tmp_path / path.stem
        assert run(["percolation", "--config", path, "--out", out]) == 0
        files = {f.name: f.read_bytes() for f in out.iterdir() if f.name.endswith(".csv")}
        files["frequencies.csv"] = read(out / "frequencies.csv").splitlines()[1:]
        rows = json.loads(read(out / "certificates.json"))["rows"]
        return files, rows

    together, rows = percolation([1, 2, 3])
    singles = [percolation([seed]) for seed in (1, 2, 3)]
    assert rows == [row for _, seed_rows in singles for row in seed_rows]
    lines = together.pop("frequencies.csv")
    assert lines == [line for files, _ in singles for line in files.pop("frequencies.csv")]
    # two approximants and four spectra per seed
    assert together == {name: data for files, _ in singles for name, data in files.items()}
    assert len(together) == 3 * (2 + 4)


def test_zd_certificates_carry_weakened_columns(tmp_path):
    out = tmp_path / "weak"
    assert run(["ids", "--preset", "example4_1", "--out", out, "--folner-j", "4"]) == 0
    rows = json.loads(read(out / "certificates.json"))["rows"]
    for row in rows:
        assert row["tile_term"] <= row["weak_tile_term"] + 1e-12


def test_laplacian_operator_from_config(tmp_path):
    cfg = {
        "group": "zd",
        "d": 2,
        "colouring": {
            "kind": "percolation",
            "seed": 5,
            "params": {"alphabet": ["a", "b"]},
        },
        "operator": {
            "kind": "laplacian",
            "params": {"base": {"kind": "percolation", "params": {"retained": ["a"]}}},
        },
        "folner_j": [5],
        "tile_n": [1],
        "frequencies": {"kind": "analytic"},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "lap"
    assert run(["ids", "--config", p, "--out", out]) == 0
    rows = read(out / "approximant_tiles_j5.csv").strip().splitlines()[1:]
    breaks = [float(r.split(",")[0]) for r in rows]
    assert min(breaks) >= -1e-9  # laplacian restrictions are positive semidefinite


def test_periodic_colouring_from_config(tmp_path):
    cfg = {
        "group": "zd",
        "d": 1,
        "colouring": {
            "kind": "periodic",
            "params": {"tile_n": 2, "table": {"0": "a", "1": "b"}},
        },
        "operator": {"kind": "percolation", "params": {"retained": ["a"]}},
        "folner_j": [6],
        "tile_n": [2],
        "frequencies": {"kind": "empirical"},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "per"
    assert run(["ids", "--config", p, "--out", out]) == 0
    # only 'a' sites survive and they are isolated: pure step at 0
    rows = read(out / "approximant_tiles_j6.csv").strip().splitlines()[1:]
    assert rows == ["0,1"]


def test_explicit_colouring_from_config(tmp_path):
    cfg = {
        "group": "zd",
        "d": 1,
        "colouring": {
            "kind": "explicit",
            "params": {
                "alphabet": ["a", "b"],
                "default": "a",
                "table": {"2": "b", "3": "b"},
            },
        },
        "operator": {"kind": "percolation", "params": {"retained": ["a"]}},
        "folner_j": [8],
        "tile_n": [1],
        "frequencies": {"kind": "empirical"},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "expl"
    assert run(["ids", "--config", p, "--out", out]) == 0
    assert (out / "approximant_tiles_j8.csv").exists()


def test_percolation_counts_match_single_pattern_oracle(tmp_path):
    from idsapprox.cayley import FreeAbelian, folner_set
    from idsapprox.config import RunConfig

    cases = [(2, None), (1, None), (2, ["1", "0"]), (1, ["1", "0"])]
    for d, weights in cases:
        raw = json.loads(read(small_percolation_config(tmp_path, seeds=(1, 2), window=12)))
        raw["d"] = d
        if weights is not None:
            raw["colouring"]["params"]["weights"] = weights
        path = tmp_path / f"oracle_{d}_{weights is None}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / f"oracle_{d}_{weights is None}"
        assert run(["percolation", "--config", path, "--out", out]) == 0
        rows = [line.split(",") for line in read(out / "frequencies.csv").splitlines()[1:]]
        cfg = RunConfig.from_dict(raw)
        model = FreeAbelian(d)
        window = folner_set(model, 12).tile
        expected = []
        for seed in (1, 2):
            colouring = cfg.colouring(model, seed_override=seed)
            colours = dict(zip(window, colouring.colour_codes(window.coords).tolist()))
            for P in cli._pattern_family(model, colouring.alphabet, 3):
                want = [colouring.alphabet.symbols.index(s) for s in P.symbols.tolist()]
                # every domain holds the identity, so each position lies in the window
                count = 0
                for x in window:
                    got = [colours.get(model.multiply(d, x)) for d in P.domain]
                    count += got == want
                expected.append((str(seed), str(len(P)), count, P))
        assert len(rows) == len(expected)
        for row, (seed, size, count, P) in zip(rows, expected):
            assert row[0] == seed and row[2] == size
            assert int(row[3]) == count
            if weights is not None:
                # every site is open, so a pattern with a closed site never occurs
                assert (count == 0) == ("closed" in P.symbols.tolist())


def test_percolation_reproduces_reference_outputs(tmp_path):
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "z2_perc_frequencies"
    out = tmp_path / "ref"
    assert run(["percolation", "--config", reference / "config.json", "--out", out]) == 0
    # approximant breakpoints may move within tau, so only the exact files are pinned
    names = ["frequencies.csv", "certificates.json"]
    names += sorted(f.name for f in (reference / "outputs").glob("spectrum_*.csv"))
    assert len(names) == 10
    for name in names:
        assert (out / name).read_bytes() == (reference / "outputs" / name).read_bytes(), name


@pytest.mark.parametrize("workload", ["h3_certificates", "z2_perc_ids"])
def test_ids_reproduces_reference_outputs(tmp_path, workload):
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / workload
    out = tmp_path / workload
    assert run(["ids", "--config", reference / "config.json", "--out", out]) == 0
    # approximant breakpoints may move within tau, so only the exact files are pinned
    for name in ("certificates.json", "summary.json"):
        assert (out / name).read_bytes() == (reference / "outputs" / name).read_bytes(), name


def test_ids_assembles_and_solves_each_side_once(tmp_path, monkeypatch):
    from idsapprox import ids, spectra
    from idsapprox.cayley import shrink

    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "z2_perc_ids"
    assembled, solved = [], []
    restrict_operator, solve = ids.restrict_operator, spectra._solve

    def count_assembly(rule, C, Q):
        assembled.append(len(Q))
        return restrict_operator(rule, C, Q)

    def count_solve(n, *args):
        solved.append(n)
        return solve(n, *args)

    monkeypatch.setattr(ids, "restrict_operator", count_assembly)
    monkeypatch.setattr(spectra, "_solve", count_solve)
    cfg = json.loads((reference / "config.json").read_text())
    assert run(["ids", "--config", reference / "config.json", "--out", tmp_path / "out"]) == 0
    model = config.RunConfig.from_dict(cfg).model()
    sizes = [len(shrink(cli.folner_set(model, j).tile, 1)) for j in cfg["folner_j"]]
    # the one assembly and solve are of the largest shrink; the smaller ones
    # solve only the clusters that their edge cuts
    assert assembled == [max(sizes)] == solved[:1]
    assert sum(solved) < sum(sizes)


def test_ids_counts_of_every_side_come_from_two_assemblies(tmp_path, monkeypatch):
    from idsapprox import ids

    real, assembled = ids.restrict_operator, []

    def count_assembly(rule, C, Q):
        assembled.append(len(Q))
        return real(rule, C, Q)

    monkeypatch.setattr(ids, "restrict_operator", count_assembly)
    assert run(["ids", "--preset", "example4_1", "--out", tmp_path / "out"]) == 0
    # per side: the union of the shrinks (approximants) and of the volumes (raw counts)
    assert len(assembled) == 4


def test_empirical_frequencies_reuse_the_reference_spectrum(tmp_path, monkeypatch):
    from fractions import Fraction

    from idsapprox import colouring, ids

    provider = colouring.EmpiricalFrequencies

    def counted_run(out):
        calls = {"spectrum": 0, "admissible": 0, "admissible_in_total_mass": 0}
        spectrum, admissible = colouring.occurring_pattern_spectrum, colouring.admissible_positions
        total_mass = provider.total_mass

        def count_spectrum(*args, **kwargs):
            calls["spectrum"] += 1
            return spectrum(*args, **kwargs)

        def count_admissible(*args, **kwargs):
            calls["admissible"] += 1
            return admissible(*args, **kwargs)

        def count_total_mass(self, tile):
            before = calls["admissible"]
            mass = total_mass(self, tile)
            calls["admissible_in_total_mass"] += calls["admissible"] - before
            return mass

        with monkeypatch.context() as m:
            for module in (cli, colouring, ids):
                if hasattr(module, "occurring_pattern_spectrum"):
                    m.setattr(module, "occurring_pattern_spectrum", count_spectrum)
            m.setattr(colouring, "admissible_positions", count_admissible)
            m.setattr(provider, "total_mass", count_total_mass)
            assert run(["ids", "--preset", "example4_1", "--out", out]) == 0
        return calls, {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    calls, outputs = counted_run(tmp_path / "reuse")
    # the same run with the spectrum recomputed over the reference (frequency_deviation
    # no longer recognises the provider) and the mass read from the admissible positions
    with monkeypatch.context() as m:
        m.setattr(colouring, "EmpiricalFrequencies", type("Unrecognised", (), {}))
        m.setattr(
            provider,
            "total_mass",
            lambda self, tile: Fraction(
                len(colouring.admissible_positions(tile, self.reference)), len(self.reference)
            ),
        )
        old_calls, old_outputs = counted_run(tmp_path / "recompute")
    assert outputs == old_outputs
    sides_times_tiles = 2 * 1
    assert calls["spectrum"] == old_calls["spectrum"] - sides_times_tiles
    assert calls["admissible_in_total_mass"] == 0 < old_calls["admissible_in_total_mass"]
