import json
from pathlib import Path

import pytest

from idsapprox.cli import main
from idsapprox.config import ConfigError, validate_config


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


def test_workers_flag_gives_same_output(tmp_path):
    base = ["ids", "--preset", "example4_1", "--folner-j", "3,6"]
    blobs = []
    for name, extra in (("w1", ["--workers", "1"]), ("w4", ["--workers", "4"])):
        out = tmp_path / name
        assert run(base + ["--out", out] + extra) == 0
        blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert blobs[0] == blobs[1]


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
