import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nhlattice.cli import main
from nhlattice.lattice import LatticeSpec, LossPattern, real_space_hamiltonian
from nhlattice.spectral import SPECTRUM_ORDER_RTOL, eig_full, spectrum_order

FIGS = sorted(Path(__file__).resolve().parents[1].glob("configs/figs/*.json"))


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def spectrum_config(tmp_path, out="out", **overrides):
    # 40 sites: small enough to be fast, large enough for midgap modes
    cfg = {
        "run": "spectrum",
        "output_dir": str(tmp_path / out),
        "lattice": {
            "n_sites": 40,
            "hopping_J": 0.045,
            "spacing_d": 1.4,
            "re_beta": 0.0,
            "pattern": {"phase": "III", "g": 1.1},
        },
    }
    cfg.update(overrides)
    return cfg


CHAIN = {
    "n_sites": 12, "hopping_J": 0.045, "spacing_d": 1.4,
    "pattern": {"phase": "III", "g": 1.1},
}
IFACE = {
    "hopping_J": 0.045, "spacing_d": 1.4,
    "interface": {"n_left_cells": 3, "n_right_cells": 3, "im_beta": 0.1},
}


def fail_eig_at(monkeypatch, n_sites):
    """Make the eigensolver raise LinAlgError on n_sites x n_sites matrices."""
    eig = np.linalg.eig

    def failing(m):
        if m.shape[0] == n_sites:
            raise np.linalg.LinAlgError("eig algorithm did not converge")
        return eig(m)

    monkeypatch.setattr(np.linalg, "eig", failing)


def beam(run, params=None, excitation=None, lattice=CHAIN):
    return {
        "run": run, "lattice": lattice,
        "excitation": excitation or {"kind": "edge"}, "params": params or {},
    }


# Configs that pass the type checks of a plain schema and then failed or
# misbehaved at run time; each names the JSON path that must be reported.
CONFIG_ONLY_ERRORS = {
    "nan_z_max": (beam("propagate", {"z_max": float("nan")}), "config.params.z_max"),
    "amplitude_strings": (
        beam("propagate", excitation={"kind": "edge", "amplitude": ["a", "b"]}),
        "config.excitation.amplitude",
    ),
    "unlabeled_triple": (
        {"run": "spectrum", "lattice": dict(CHAIN, pattern={"g0": 1.0, "g1": 0.0, "g2": 1.0})},
        "config.lattice.pattern",
    ),
    "custom_cell_strings": (
        {"run": "spectrum", "lattice": dict(
            CHAIN, pattern={"phase": "custom", "cell": [["a", 0]] * 4})},
        "config.lattice.pattern.cell",
    ),
    "kz_window_short": (beam("momentum", {"kz_window": [1.0]}), "config.params.kz_window"),
    "fit_range_short": (
        beam("fit", {"fit": "oscillation", "fit_range": [1.0]}), "config.params.fit_range"
    ),
    "site_word": (beam("fit", {"site": "middle"}), "config.params.site"),
    "j_step_zero": (
        {"run": "ep-sweep", "lattice": IFACE, "params": {"j_step": 0}},
        "config.params.j_step",
    ),
    "points_word": (
        {"run": "calibrate", "params": {"kind": "J_vs_d", "points": "foo"}},
        "config.params.points",
    ),
    "save_every_zero": (beam("propagate", {"save_every": 0}), "config.params.save_every"),
    "unknown_method": (beam("propagate", {"method": "euler"}), "config.params.method"),
    "unknown_window": (beam("momentum", {"window": "kaiser"}), "config.params.window"),
    "unknown_fit": (beam("fit", {"fit": "gauss"}), "config.params.fit"),
    "unknown_symmetry_case": (
        {"run": "symmetry", "params": {"cases": ["chiral"]}}, "config.params.cases"
    ),
    "amplitude_budget": (
        beam("propagate", {"z_max": 1e6, "dz": 0.01}, lattice=dict(CHAIN, n_sites=400)),
        "config.params",
    ),
    "transform_budget": (beam("momentum", {"pad_factor": 32}), "config.params.pad_factor"),
    "j_scan_budget": (
        {"run": "ep-sweep", "lattice": IFACE, "params": {"j_step": 1e-12}},
        "config.params.j_step",
    ),
    "g2_scan_budget": (
        {"run": "interface-compare", "lattice": {"hopping_J": 0.045, "spacing_d": 1.4},
         "params": {"g2_step": 1e-9}},
        "config.params.g2_step",
    ),
    "g2_scan_empty": (
        {"run": "interface-compare", "lattice": {"hopping_J": 0.045, "spacing_d": 1.4},
         "params": {"g2_min": 2.0, "g2_max": 1.0}},
        "config.params",
    ),
    "chain_site_budget": (
        {"run": "spectrum", "lattice": dict(CHAIN, n_sites=100_000)}, "config.lattice.n_sites"
    ),
    "interface_site_budget": (
        {"run": "ep-sweep", "lattice": dict(IFACE, interface={
            "n_left_cells": 20_000, "n_right_cells": 20_000, "im_beta": 0.1})},
        "config.lattice.interface",
    ),
    "compare_cells_budget": (
        {"run": "interface-compare", "lattice": {"hopping_J": 0.045, "spacing_d": 1.4},
         "params": {"n_cells_per_side": 10**30}},
        "config.params.n_cells_per_side",
    ),
    "compare_defect_budget": (
        {"run": "interface-compare", "lattice": {"hopping_J": 0.045, "spacing_d": 1.4},
         "params": {"n_sites_defect": 100_000}},
        "config.params.n_sites_defect",
    ),
    "builtin_kind": (
        {"run": "calibrate", "params": {"kind": "generic", "points": "builtin"}},
        "config.params.kind",
    ),
}


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.lists(st.floats(allow_nan=True), max_size=3), st.just({}),
)


def mutate(cfg, rnd, leaf, op, size):
    """Drop one key, swap one entry for ``leaf``, or resize one list."""
    nodes = []  # (container, key) for every entry of every dict and list

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            nodes.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(cfg)
    parent, key = rnd.choice(nodes)
    value = parent[key]
    if op == "drop" and isinstance(parent, dict):
        del parent[key]
    elif op == "resize" and isinstance(value, list):
        parent[key] = (value * (size + 1))[:size]
    else:
        parent[key] = leaf
    return cfg


def read_tree(root: Path):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestValidation:
    @pytest.mark.parametrize("path", FIGS, ids=[p.stem for p in FIGS])
    def test_shipped_configs_validate(self, path):
        assert main(["validate", str(path)]) == 0

    def test_malformed_json_is_status_2_without_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"run": "spectrum",,}')
        out_root = tmp_path / "out"
        code = main(["run", str(bad)])
        assert code == 2
        assert "line" in capsys.readouterr().err
        assert not out_root.exists()

    def test_unknown_field_reports_path(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path)
        cfg["lattice"]["pattern"]["g3"] = 1.0
        code = main(["run", write_config(tmp_path, cfg)])
        assert code == 2
        assert "lattice.pattern.g3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_required_field(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path)
        del cfg["lattice"]["spacing_d"]
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        assert "spacing_d" in capsys.readouterr().err

    def test_sweep_requires_grid(self, tmp_path):
        cfg = spectrum_config(tmp_path)
        assert main(["sweep", write_config(tmp_path, cfg)]) == 2

    def test_strict_params_per_run(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path, params={"z_max": 10.0})
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        assert "params.z_max" in capsys.readouterr().err

    def test_validate_subcommand_runs_nothing(self, tmp_path):
        cfg = spectrum_config(tmp_path)
        assert main(["validate", write_config(tmp_path, cfg)]) == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(CONFIG_ONLY_ERRORS))
    def test_config_only_errors_stop_validate_and_run(self, tmp_path, capsys, case):
        cfg, json_path = copy.deepcopy(CONFIG_ONLY_ERRORS[case])
        cfg["output_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert f"error: {json_path}:" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(FIGS), st.randoms(use_true_random=False), JSON_LEAVES,
        st.sampled_from(["drop", "swap", "resize"]), st.integers(0, 3),
    )
    def test_mutated_bundled_configs_validate_or_exit_2(
        self, tmp_path, fig, rnd, leaf, op, size
    ):
        cfg = mutate(json.loads(fig.read_text()), rnd, leaf, op, size)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) in (0, 2)


class TestRun:
    def test_spectrum_outputs_and_manifest(self, tmp_path):
        cfg = spectrum_config(tmp_path)
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        out = tmp_path / "out"
        spectrum = (out / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "index,ReE,ImE,condition_number"
        assert len(spectrum) == 41
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["run"] == "spectrum"
        assert len(manifest["config_sha256"]) == 64
        assert manifest["summary"]["n_zero_modes"] == 2

    def test_numerical_error_is_status_3_with_diagnostics(self, tmp_path, capsys):
        cfg = {
            "run": "winding",
            "output_dir": str(tmp_path / "out"),
            "lattice": {
                "hopping_J": 0.045,
                "spacing_d": 1.4,
                "pattern": {"phase": "I"},
            },
        }
        code = main(["run", write_config(tmp_path, cfg)])
        assert code == 3
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["error_class"] == "GaplessSpectrumError"

    def test_linalg_error_is_status_3_with_diagnostics(self, tmp_path, monkeypatch, capsys):
        fail_eig_at(monkeypatch, 40)
        assert main(["run", write_config(tmp_path, spectrum_config(tmp_path))]) == 3
        assert "numerical error" in capsys.readouterr().err
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["error_class"] == "LinAlgError"

    def test_interface_lattice_and_derived_parameters(self, tmp_path):
        cfg = {
            "run": "spectrum",
            "output_dir": str(tmp_path / "out"),
            "lattice": {
                "hopping_J": "auto",
                "spacing_d": 1.4,
                "interface": {"n_left_cells": 3, "n_right_cells": 3, "im_beta": 0.1},
            },
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        derived = manifest["derived_parameters"]
        assert derived["lattice.hopping_J_from_spacing"] == pytest.approx(0.045, rel=1e-9)
        assert derived["lattice.interface.left.g_from_im_beta"] == pytest.approx(1.111, abs=1e-3)

    def test_fig4b_flags_the_quasi_stationary_interface_fits(self, tmp_path):
        fig4b = next(p for p in FIGS if p.stem == "fig4b")
        cfg = dict(json.loads(fig4b.read_text()), output_dir=str(tmp_path / "out"))
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        fits = [json.loads(p.read_text())
                for p in sorted((tmp_path / "out").glob("point_*/fit.json"))]
        # grid order: spacing 1.8, 1.6, 1.4, 1.2, 1.0, each with edge then interface
        assert [f["kz_osc_at_zero"] for f in fits] == [False, True, False, True] + [False] * 6
        assert all(f["rss"] >= 0 for f in fits)
        assert max(fits[1]["kz_osc"], fits[3]["kz_osc"]) < 1e-6

    def test_run_is_deterministic(self, tmp_path):
        cfg = spectrum_config(tmp_path, out="out1")
        main(["run", write_config(tmp_path, cfg, "c1.json")])
        cfg2 = spectrum_config(tmp_path, out="out2")
        main(["run", write_config(tmp_path, cfg2, "c2.json")])
        t1 = read_tree(tmp_path / "out1")
        t2 = read_tree(tmp_path / "out2")
        assert list(t1) == list(t2)
        # manifests differ only through output_dir inside the hashed config
        assert t1["spectrum.csv"] == t2["spectrum.csv"]


class TestSweep:
    def test_single_point_grid_matches_plain_run(self, tmp_path):
        plain = spectrum_config(tmp_path, out="plain")
        main(["run", write_config(tmp_path, plain, "plain.json")])
        swept = spectrum_config(tmp_path, out="swept")
        swept["grid"] = [{"path": "lattice.pattern.g", "values": [1.1]}]
        main(["sweep", write_config(tmp_path, swept, "swept.json")])
        point = read_tree(tmp_path / "swept" / "point_000")
        assert point["spectrum.csv"] == read_tree(tmp_path / "plain")["spectrum.csv"]
        results = (tmp_path / "swept" / "results.csv").read_text().splitlines()
        assert len(results) == 2

    def test_two_parameter_grid_order(self, tmp_path):
        cfg = spectrum_config(tmp_path, out="sweep2")
        cfg["grid"] = [
            {"path": "lattice.pattern.g", "values": [0.7, 1.1]},
            {"path": "lattice.n_sites", "values": [12, 16]},
        ]
        main(["run", write_config(tmp_path, cfg)])
        rows = (tmp_path / "sweep2" / "results.csv").read_text().splitlines()
        assert len(rows) == 5
        assert rows[1].startswith("0,0.69999999999999996,12")
        assert rows[4].startswith("3,1.1000000000000001,16")

    def test_failed_point_recorded_not_fatal(self, tmp_path):
        cfg = {
            "run": "winding",
            "output_dir": str(tmp_path / "out"),
            "lattice": {
                "hopping_J": 0.045,
                "spacing_d": 1.4,
                "pattern": {"phase": "III", "g": 1.1},
            },
            "grid": [{"path": "lattice.pattern", "values": [
                {"phase": "III", "g": 1.1},
                {"phase": "I"},
            ]}],
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert rows[1].endswith(",")  # first point clean
        assert rows[2].endswith("GaplessSpectrumError")
        manifest = json.loads((tmp_path / "out" / "sweep_manifest.json").read_text())
        assert manifest["failed_points"] == [1]

    def test_point_configuration_error_recorded_not_fatal(self, tmp_path):
        # site 10 exists on the 12-site chain but not on the 8-site one
        cfg = {
            "run": "propagate",
            "output_dir": str(tmp_path / "out"),
            "lattice": dict(CHAIN, n_sites=12),
            "excitation": {"kind": "site_index", "site": 10},
            "params": {"z_max": 1.0},
            "grid": [{"path": "lattice.n_sites", "values": [12, 8]}],
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        out = tmp_path / "out"
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[1].endswith(",")
        assert rows[2].endswith(",ConfigurationError")
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert manifest["failed_points"] == [1]
        diag = json.loads((out / "point_001" / "diagnostics.json").read_text())
        assert "outside lattice" in diag["message"]

    def test_point_linalg_error_recorded_not_fatal(self, tmp_path, monkeypatch):
        fail_eig_at(monkeypatch, 16)
        cfg = spectrum_config(tmp_path)
        cfg["grid"] = [{"path": "lattice.n_sites", "values": [12, 16]}]
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        out = tmp_path / "out"
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[1].endswith(",")
        assert rows[2].endswith(",LinAlgError")
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert manifest["failed_points"] == [1]
        diag = json.loads((out / "point_001" / "diagnostics.json").read_text())
        assert diag["error_class"] == "LinAlgError"

    def test_worker_pool_output_identical(self, tmp_path, monkeypatch):
        cfg = spectrum_config(tmp_path, out="serial")
        cfg["grid"] = [{"path": "lattice.pattern.g", "values": [0.7, 0.9, 1.1]}]
        main(["run", write_config(tmp_path, cfg, "serial.json")])
        monkeypatch.setenv("NHLATTICE_WORKERS", "3")
        cfg2 = spectrum_config(tmp_path, out="parallel")
        cfg2["grid"] = [{"path": "lattice.pattern.g", "values": [0.7, 0.9, 1.1]}]
        main(["run", write_config(tmp_path, cfg2, "parallel.json")])
        serial = read_tree(tmp_path / "serial")
        parallel = read_tree(tmp_path / "parallel")
        assert {k: v for k, v in serial.items() if "manifest" not in k} == {
            k: v for k, v in parallel.items() if "manifest" not in k
        }

    def test_grid_path_must_exist(self, tmp_path):
        cfg = spectrum_config(tmp_path)
        cfg["grid"] = [{"path": "lattice.nonexistent", "values": [1]}]
        assert main(["run", write_config(tmp_path, cfg)]) == 2


class TestRunTypes:
    def test_calibrate_builtin(self, tmp_path):
        cfg = {
            "run": "calibrate",
            "output_dir": str(tmp_path / "out"),
            "params": {"kind": "J_vs_d", "points": "builtin", "predict_at": [1.4]},
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        record = json.loads((tmp_path / "out" / "calibration.json").read_text())
        assert record["predictions"][0][1] == pytest.approx(0.045, rel=1e-9)

    def test_symmetry_run(self, tmp_path):
        cfg = {
            "run": "symmetry",
            "output_dir": str(tmp_path / "out"),
            "params": {"k_samples": 8},
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        report = json.loads((tmp_path / "out" / "symmetry.json").read_text())
        assert report["nontrivial"]["class_label"] == "BDI"
        assert report["trivial"]["class_label"] == "BDI"

    def test_fit_run_decay(self, tmp_path):
        cfg = {
            "run": "fit",
            "output_dir": str(tmp_path / "out"),
            "lattice": {
                "hopping_J": 0.045,
                "spacing_d": 1.4,
                "re_beta": 0.0,
                "interface": {"n_left_cells": 3, "n_right_cells": 3, "im_beta": 0.1},
            },
            "excitation": {"kind": "interface"},
            "params": {"fit": "decay", "z_max": 40.0},
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        record = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert record["fit"] == "decay"
        assert record["ell"] > 0


class TestSpectrumOrder:
    def test_rounding_perturbation_keeps_row_order(self):
        # fig1b point_000: half of this phase-II spectrum sits in pairs of equal Re E
        spec = LatticeSpec(n_sites=40, hopping_J=0.045, spacing_d=1.4,
                           pattern=LossPattern.from_g(1.1, 1.1, -1.1), re_beta=0.0)
        h = real_space_hamiltonian(spec)
        w = eig_full(h).eigenvalues
        norm = np.linalg.norm(h)
        order = spectrum_order(w, SPECTRUM_ORDER_RTOL * norm)
        re = np.sort(w.real)
        assert np.count_nonzero(np.diff(re) <= SPECTRUM_ORDER_RTOL * norm) >= 10
        assert np.all(np.diff(w.real[order]) >= -SPECTRUM_ORDER_RTOL * norm)
        rng = np.random.default_rng(0)
        for _ in range(20):
            kick = 1e-13 * norm * (rng.uniform(-1, 1, w.size) + 1j * rng.uniform(-1, 1, w.size))
            assert np.array_equal(spectrum_order(w + kick, SPECTRUM_ORDER_RTOL * norm), order)
