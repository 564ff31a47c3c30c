import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nhlattice import propagation
from nhlattice.cli import main
from nhlattice.errors import ConfigurationError
from nhlattice.lattice import LatticeSpec, LossPattern, real_space_hamiltonian
from nhlattice.spectral import SPECTRUM_ORDER_RTOL, eig_full, spectrum_order

FIGS = sorted(Path(__file__).resolve().parents[1].glob("configs/figs/*.json"))
# a calibration file of the points (1, 2) and (2, 4): slope 2 through the origin
LINEAR_POINTS = str(Path(__file__).resolve().parent / "data" / "linear_points.json")


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
    "symmetry_k_budget": (
        {"run": "symmetry", "params": {"k_samples": 10**12}}, "config.params.k_samples"
    ),
    "winding_k_budget": (
        {"run": "winding", "lattice": {
            "hopping_J": 0.045, "spacing_d": 1.4, "pattern": {"phase": "III", "g": 1.1}},
         "params": {"k_grid_size": 10**12}},
        "config.params.k_grid_size",
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
    # equal domains make one uniform chain, whose two degenerate outer edge
    # modes an ep-sweep would report as a coalescence at the scan edge
    "ep_identical_domains": (
        {"run": "ep-sweep", "lattice": dict(IFACE, interface={
            "n_left_cells": 6, "n_right_cells": 6,
            "left": {"phase": "III", "g": 1.1}, "right": {"phase": "III", "g": 1.1}})},
        "config.lattice.interface",
    ),
    # scanned g2 values whose patterns the run's builders reject: g1*g2
    # underflows to 0, so neither phase label holds
    "winding_g2_underflow": (
        {"run": "winding", "lattice": {"hopping_J": 0.045, "spacing_d": 1.4},
         "params": {"g2_values": [1e-200], "exclusion": 1e-300}},
        "config.params.g2_values",
    ),
    "compare_g2_underflow": (
        {"run": "interface-compare", "lattice": {"hopping_J": 0.045, "spacing_d": 1.4},
         "params": {"g2_min": 1e-320, "g2_max": 1e-320}},
        "config.params.g2_min",
    ),
    "beta_overflow": (
        {"run": "spectrum", "lattice": dict(CHAIN, n_sites=40, pattern={"phase": "III", "g": 1e308})},
        "config.lattice",
    ),
    "ep_lossless_shorthand": (
        {"run": "ep-sweep", "lattice": dict(IFACE, interface={
            "n_left_cells": 6, "n_right_cells": 6, "im_beta": 0})},
        "config.lattice.interface",
    ),
    # rules of the builders that validate applies by building the model
    "excitation_site_outside": (
        beam("propagate", excitation={"kind": "site_index", "site": 40}),
        "config.excitation.site",
    ),
    "interface_excitation_on_chain": (
        beam("propagate", excitation={"kind": "interface"}), "config.excitation.kind"
    ),
    "bulk_excitation_on_short_chain": (
        beam("propagate", excitation={"kind": "bulk_cell_start"}), "config.excitation.kind"
    ),
    "kz_window_empty": (
        beam("momentum", {"z_max": 10.0, "kz_window": [100.0, 100.01]}),
        "config.params.kz_window",
    ),
    "momentum_few_sites": (beam("momentum", lattice=dict(CHAIN, n_sites=6)), "config.params"),
    "fit_site_outside": (beam("fit", {"site": 99}), "config.params.site"),
    "sweep_point_site_outside": (
        dict(beam("propagate", {"z_max": 1.0}, {"kind": "site_index", "site": 10}),
             grid=[{"path": "lattice.n_sites", "values": [12, 8]}]),
        "config.excitation.site",
    ),
    # fields that the chosen mode would ignore
    "site_on_edge_excitation": (
        beam("propagate", excitation={"kind": "edge", "site": 7}), "config.excitation.site"
    ),
    "points_with_points_file": (
        {"run": "calibrate", "params": {
            "model": "linear_through_origin", "points": [[1.0, 10.0]],
            "points_file": LINEAR_POINTS}},
        "config.params.points_file",
    ),
    "fit_range_on_decay_fit": (
        beam("fit", {"fit": "decay", "fit_range": [4.0, 30.0]}), "config.params.fit_range"
    ),
    "fit_ranges_on_oscillation_fit": (
        beam("fit", {"fit": "oscillation", "fit_ranges": [[4.0, 30.0]]}),
        "config.params.fit_ranges",
    ),
    "fixed_x0_without_exponential_fit": (
        {"run": "calibrate", "params": {
            "model": "linear_through_origin", "points": [[1.0, 2.0]], "fixed_x0": 1.0}},
        "config.params.fixed_x0",
    ),
    "winding_pattern_with_g2_values": (
        {"run": "winding", "lattice": {
            "hopping_J": 0.045, "spacing_d": 1.4, "pattern": {"phase": "II", "g": 1.1}},
         "params": {"g2_values": [0.7]}},
        "config.lattice.pattern",
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


def draw_range(draw, lo, hi):
    a = draw(st.floats(lo, hi))
    return [a, a + draw(st.floats(1e-3, 1.0))]


@st.composite
def small_beam_configs(draw):
    """propagate, momentum and fit configs on chains of 1-16 sites, with z
    grids of 1 to 131 samples (a momentum map needs 64) and sites up to two
    beyond the chain."""
    if draw(st.booleans()):
        n_sites = draw(st.integers(1, 16))
        lattice = dict(CHAIN, n_sites=n_sites,
                       pattern=draw(st.sampled_from([{"phase": "I"}, {"phase": "III", "g": 1.1}])))
    else:
        left = draw(st.integers(1, 3))
        right = draw(st.integers(1, 4 - left))
        n_sites = 4 * (left + right)
        lattice = dict(IFACE, interface={
            "n_left_cells": left, "n_right_cells": right, "im_beta": 0.1})
    sites = st.integers(1, n_sites + 2)
    excitation = {"kind": draw(st.sampled_from(
        ["edge", "bulk_cell_start", "interface", "site_index"]))}
    if draw(st.booleans()):
        excitation["site"] = draw(sites)
    run = draw(st.sampled_from(["propagate", "momentum", "fit"]))
    params = {"dz": 0.1, "z_max": draw(st.floats(0.01, 13.0))}
    if run == "momentum":
        params["pad_factor"] = draw(st.integers(1, 4))
        if draw(st.booleans()):
            params["kz_window"] = draw_range(draw, 5.0, 8.0)  # re_beta is 6.6
    elif run == "fit":
        params["fit"] = draw(st.sampled_from(["decay", "oscillation"]))
        params["site"] = draw(st.one_of(st.just("excited"), sites))
        if draw(st.booleans()):
            params["fit_range"] = draw_range(draw, 0.0, 10.0)
        if draw(st.booleans()):
            params["fit_ranges"] = [draw_range(draw, 0.0, 10.0)]
    return beam(run, params, excitation, lattice)


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

    @pytest.mark.parametrize("run, params, message", [
        ("winding", {"g2_values": [1.0, 1e-200], "exclusion": 1e-300}, "g2 = 1e-200: "),
        ("interface-compare", {"g2_min": 1e-320, "g2_max": 1e-320}, "g2 = 1e-320 of the scan: "),
    ], ids=["winding", "interface-compare"])
    def test_scan_error_names_the_failing_g2(self, tmp_path, capsys, run, params, message):
        cfg = {"run": run, "output_dir": str(tmp_path / "out"),
               "lattice": {"hopping_J": 0.045, "spacing_d": 1.4}, "params": params}
        assert main(["validate", write_config(tmp_path, cfg)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("entries, message", [
        ([{"x": 1.0, "y": 2.0}, {"x": "a", "y": 1}], "entry 1: x"),
        ([{"x": [1], "y": 1}], "entry 0: x"),
        ([{"x": 1.0, "y": float("nan")}], "entry 0: y"),
        (None, "cannot read"),
    ], ids=["x_string", "x_list", "y_nan", "missing_file"])
    def test_points_file_errors_stop_validate_and_run(self, tmp_path, capsys, entries, message):
        points = tmp_path / "points.json"
        if entries is not None:
            points.write_text(json.dumps(entries))  # writes NaN as a bare NaN
        cfg = {
            "run": "calibrate", "output_dir": str(tmp_path / "out"),
            "params": {"model": "linear_through_origin", "points_file": str(points)},
        }
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert "error: config.params.points_file:" in err
            assert message in err
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

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(small_beam_configs())
    def test_validate_predicts_run(self, tmp_path, cfg):
        # exit 0 from validate: run has no configuration error left to report
        with tempfile.TemporaryDirectory(dir=tmp_path) as root:
            out = Path(root) / "out"
            path = write_config(Path(root), dict(cfg, output_dir=str(out)))
            code = main(["validate", path])
            assert code in (0, 2)
            if code == 0:
                assert main(["run", path]) in (0, 3)
            else:
                assert main(["run", path]) == 2
                assert not out.exists()


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

    @pytest.mark.parametrize("run, lattice", [
        ("spectrum", dict(CHAIN, re_beta=-(2**64), pattern={"g0": 2**64, "g1": 2**64, "g2": 1})),
        ("winding", {"hopping_J": 0.045, "spacing_d": 2**64, "pattern": {"phase": "III", "g": 1}}),
    ], ids=["spectrum", "winding"])
    def test_integers_beyond_int64_are_numbers(self, tmp_path, run, lattice):
        # finite JSON numbers that numpy cannot hold as int64
        cfg = {"run": run, "output_dir": str(tmp_path / "out"), "lattice": lattice}
        assert main(["run", write_config(tmp_path, cfg)]) in (0, 3)

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

    @pytest.mark.parametrize("n_sites", [1, 2, 3])
    def test_chains_of_a_few_sites(self, tmp_path, n_sites):
        cfg = spectrum_config(tmp_path)
        cfg["lattice"]["n_sites"] = n_sites
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        spectrum = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        assert len(spectrum) == n_sites + 1

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
    @pytest.mark.parametrize("grid", [None, [1.1], [0.9, 1.1, 1.3]])
    def test_each_config_and_point_is_validated_once(self, tmp_path, monkeypatch, grid):
        from nhlattice import cli

        calls = []
        validate = cli.validate_config

        def counting(*args, **kwargs):
            calls.append(args)
            return validate(*args, **kwargs)

        monkeypatch.setattr(cli, "validate_config", counting)
        cfg = spectrum_config(tmp_path)
        if grid is not None:
            cfg["grid"] = [{"path": "lattice.pattern.g", "values": grid}]
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        assert len(calls) == 1 + (0 if grid is None else len(grid))

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

    def test_point_configuration_error_recorded_not_fatal(self, tmp_path, monkeypatch):
        # validate builds every point, so only a run-time rule can fail one
        propagate = propagation.propagate

        def failing(spec, *args, **kwargs):
            if spec.n_sites == 8:
                raise ConfigurationError("no 8-site propagation")
            return propagate(spec, *args, **kwargs)

        monkeypatch.setattr(propagation, "propagate", failing)
        cfg = dict(beam("propagate", {"z_max": 1.0}), output_dir=str(tmp_path / "out"),
                   grid=[{"path": "lattice.n_sites", "values": [12, 8]}])
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        out = tmp_path / "out"
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[1].endswith(",")
        assert rows[2].endswith(",ConfigurationError")
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert manifest["failed_points"] == [1]
        diag = json.loads((out / "point_001" / "diagnostics.json").read_text())
        assert diag["message"] == "no 8-site propagation"

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

    @settings(deadline=None, max_examples=6,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(["spectrum", "propagate", "fit"]), st.integers(2, 3),
        st.lists(st.sampled_from([0.7, 0.9, 1.1, 1.3]), min_size=1, max_size=3),
    )
    def test_worker_pool_output_identical(self, tmp_path, monkeypatch, run, workers, g_values):
        # each sweep runs with 1 worker and with 2 or 3; an oscillation fit
        # makes the pool threads call least_squares side by side
        params = {"spectrum": {}, "propagate": {"z_max": 5.0},
                  "fit": {"z_max": 20.0, "dz": 0.05, "fit": "oscillation"}}[run]
        cfg = dict(beam(run, params), grid=[{"path": "lattice.pattern.g", "values": g_values}])
        if run == "spectrum":
            del cfg["excitation"]
        trees = []
        with tempfile.TemporaryDirectory(dir=tmp_path) as root:
            for n in ("1", str(workers)):
                monkeypatch.setenv("NHLATTICE_WORKERS", n)
                out = Path(root) / f"workers_{n}"
                path = write_config(Path(root), dict(cfg, output_dir=str(out)), f"{n}.json")
                assert main(["run", path]) == 0
                trees.append({k: v for k, v in read_tree(out).items() if "manifest" not in k})
        assert trees[0] == trees[1]
        assert len(trees[0]) > len(g_values)

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "", "1.5"])
    def test_bad_worker_count_exits_2_before_writing(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("NHLATTICE_WORKERS", value)
        cfg = spectrum_config(tmp_path)
        cfg["grid"] = [{"path": "lattice.pattern.g", "values": [0.7, 1.1]}]
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NHLATTICE_WORKERS: expected a positive integer")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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


class TestRunnerOptions:
    """Runner branches that no bundled config reaches."""

    def test_spectrum_vectors_follow_spectrum_rows(self, tmp_path):
        cfg = spectrum_config(tmp_path, params={"include_vectors": True})
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        out = tmp_path / "out"
        rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
        table = np.loadtxt(out / "vectors.csv", delimiter=",", skiprows=1)
        assert table.shape == (40, 80)
        vectors = table[:, 0::2] + 1j * table[:, 1::2]
        spec = LatticeSpec(n_sites=40, hopping_J=0.045, spacing_d=1.4,
                           pattern=LossPattern.topological(1.1), re_beta=0.0)
        result = eig_full(real_space_hamiltonian(spec))
        for k, (_, re, im, cond) in enumerate(rows):
            (i,) = np.flatnonzero(result.eigenvalues == complex(re, im))
            assert np.array_equal(vectors[:, k], result.right_vectors[:, i])
            assert cond == result.condition_numbers[i]

    def test_saved_amplitudes_match_intensities(self, tmp_path):
        cfg = beam("propagate", {"z_max": 5.0, "save_amplitudes": True, "save_every": 7})
        cfg["output_dir"] = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        out = tmp_path / "out"
        intensity = np.loadtxt(out / "intensity.csv", delimiter=",", skiprows=1)
        amplitudes = np.loadtxt(out / "amplitudes.csv", delimiter=",", skiprows=1)
        assert intensity.shape == (72, 13)  # z samples 0, 7, ..., 497 of 501
        assert amplitudes.shape == (72, 25)
        assert np.array_equal(amplitudes[:, 0], intensity[:, 0])
        assert np.allclose(intensity[:, 0], 0.07 * np.arange(72), rtol=0, atol=1e-12)
        power = amplitudes[:, 1::2] ** 2 + amplitudes[:, 2::2] ** 2
        assert np.abs(power - intensity[:, 1:]).max() <= 1e-15

    @pytest.mark.parametrize("method", ["expm", "rk4"])
    def test_save_every_writes_rows_of_the_full_run(self, tmp_path, method):
        # 501 samples; 7 does not divide 500, so the last sample is computed
        # for the summary but not written
        def run(save_every):
            cfg = beam("propagate", {"z_max": 5.0, "method": method, "save_every": save_every,
                                     "save_amplitudes": True})
            cfg["output_dir"] = str(tmp_path / f"out{save_every}")
            assert main(["run", write_config(tmp_path, cfg)]) == 0
            return tmp_path / f"out{save_every}"

        full, kept = run(1), run(7)
        for name in ("intensity.csv", "amplitudes.csv"):
            header, *rows = (full / name).read_text().splitlines()
            assert (kept / name).read_text().splitlines() == [header, *rows[::7]]
        summary = [json.loads((d / "manifest.json").read_text())["summary"] for d in (full, kept)]
        assert summary[0] == summary[1]
        grid = json.loads((kept / "z_grid.json").read_text())
        assert (grid["n_samples"], grid["save_every"], grid["z_max"]) == (501, 7, 5.0)

    def test_single_z_sample_propagation(self, tmp_path):
        # z_max below dz/2 keeps the launch only: a z grid of one sample
        cfg = beam("propagate", {"z_max": 0.004, "dz": 0.01})
        cfg["output_dir"] = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        grid = json.loads((tmp_path / "out" / "z_grid.json").read_text())
        assert (grid["n_samples"], grid["dz"], grid["z_max"]) == (1, 0.01, 0.0)

    def test_momentum_exports_the_configured_kz_window(self, tmp_path):
        cfg = beam("momentum", {"z_max": 40.0, "kz_window": [6.5, 6.75]})
        cfg["output_dir"] = str(tmp_path / "out")
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        out = tmp_path / "out"
        power = np.loadtxt(out / "power.csv", delimiter=",", skiprows=1)
        kz = power[:, 0]
        assert kz.size > 1
        assert np.all((kz >= 6.5) & (kz <= 6.75))
        axes = json.loads((out / "axes.json").read_text())
        assert axes["kz_window"] == [6.5, 6.75]
        assert np.array_equal(axes["kz"], kz)


    def test_momentum_power_matches_fft2_of_the_saved_field(self, tmp_path):
        field = {"z_max": 10.0, "dz": 0.0125}
        cfgs = {
            "field": beam("propagate", dict(field, save_amplitudes=True)),
            "map": beam("momentum", dict(field, window="none", pad_factor=3)),
        }
        for name, cfg in cfgs.items():
            cfg["output_dir"] = str(tmp_path / name)
            assert main(["run", write_config(tmp_path, cfg, f"{name}.json")]) == 0
        table = np.loadtxt(tmp_path / "field" / "amplitudes.csv", delimiter=",", skiprows=1)
        a = table[:, 1::2] + 1j * table[:, 2::2]
        n_zf, n_xf = 3 * a.shape[0], 3 * a.shape[1]
        ref = np.abs(np.fft.fft2(a, s=(n_zf, n_xf))) ** 2 / (n_zf * n_xf)
        ref = np.fft.fftshift(ref, axes=0)[:, np.tile(np.arange(n_xf), 2)]
        kz_axis = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(n_zf, d=0.0125))
        power = np.loadtxt(tmp_path / "map" / "power.csv", delimiter=",", skiprows=1)
        rows = np.isin(kz_axis, power[:, 0])
        assert rows.sum() == power.shape[0] > 1
        assert np.abs(power[:, 1:] - ref[rows]).max() <= 1e-13 * ref.max()
        total = json.loads((tmp_path / "map" / "manifest.json").read_text())["summary"]
        expected = (np.abs(a) ** 2).sum()
        assert abs(total["total_power_one_zone"] - expected) <= 1e-13 * expected


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
