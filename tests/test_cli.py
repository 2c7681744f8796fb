"""End-to-end CLI pipeline, exit codes, and output formats."""

import csv
import hashlib
import shutil

import numpy as np
import pytest

from pcfield import (
    band_cross_spectrum,
    connectivity_maps,
    electrode_seed_voxels,
    load_factor,
    load_leadfield,
    read_epochs_csv,
    read_map_csv,
    read_pcf1,
    spherical_grid,
    voxel_under_electrode,
    write_map_csv,
    write_pcf1,
)
from pcfield.cli import _read_xspec, main
from pcfield.confield import SeededMap


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse paths exit directly
        return exc.code


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full workflow on the reference defaults; shared by the read checks."""
    root = tmp_path_factory.mktemp("pipeline")
    lf = root / "lf.pcf"
    assert run_cli("leadfield", "--builtin-1020", "--grid", 0.2, "--out", lf) == 0

    sim = root / "sim"
    assert run_cli("simulate", "--leadfield", lf, "--out", sim) == 0

    xspec = root / "alpha.pcf"
    assert (
        run_cli(
            "xspec", "--epochs", sim / "epochs.csv", "--rate", 64.0,
            "--band", "8:12", "--out", xspec,
        )
        == 0
    )

    maps = {}
    for method in ("partial", "classical"):
        out = root / f"maps_{method}"
        assert (
            run_cli(
                "connect", "--leadfield", lf, "--xspec", xspec,
                "--method", method, "--measure", "lagged", "--out", out,
            )
            == 0
        )
        maps[method] = out

    scores = root / "scores.csv"
    assert (
        run_cli(
            "compare", "--maps", maps["partial"], maps["classical"],
            "--truth", sim / "truth.csv", "--out", scores,
        )
        == 0
    )

    ppm = root / "composite.ppm"
    assert run_cli("render", "--map", maps["partial"] / "composite.csv", "--out", ppm) == 0

    return {
        "root": root, "lf": lf, "sim": sim, "xspec": xspec,
        "maps": maps, "scores": scores, "ppm": ppm,
    }


class TestLeadfieldCommand:
    def test_reports_full_rank(self, pipeline, capsys):
        lf = pipeline["root"] / "again.pcf"
        assert run_cli("leadfield", "--builtin-1020", "--grid", 0.2, "--out", lf) == 0
        out = capsys.readouterr().out
        assert "full row rank 19" in out

    def test_runs_no_svd(self, tmp_path, monkeypatch, capsys):
        # the rank screen accepts the gain; the report needs no spectrum of it
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refused)
        lf = tmp_path / "lf.pcf"
        assert run_cli("leadfield", "--builtin-1020", "--grid", 0.2, "--out", lf) == 0
        n_voxels = len(spherical_grid(0.2))
        assert capsys.readouterr().out == (
            f"lead field 19 x {n_voxels}: full row rank 19\nwrote {lf}\n"
        )

    def test_geometry_sidecars_written(self, pipeline):
        assert (pipeline["root"] / "lf.electrodes.csv").is_file()
        assert (pipeline["root"] / "lf.voxels.csv").is_file()
        restored = load_leadfield(pipeline["lf"])
        assert restored.gain.shape == (19, len(spherical_grid(0.2)))

    def test_duplicate_voxel_rows_rejected(self, tmp_path):
        voxels = tmp_path / "vox.csv"
        voxels.write_text(
            "voxel_id,x,y,z\n0,0.0,0.0,0.0\n1,0.0,0.0,0.0\n"
        )
        code = run_cli(
            "leadfield", "--builtin-1020", "--voxels", voxels,
            "--out", tmp_path / "lf.pcf",
        )
        assert code == 2

    def test_missing_out_is_usage_error(self):
        assert run_cli("leadfield", "--builtin-1020", "--grid", 0.2) == 64

    def test_nan_grid_is_validation_error(self, tmp_path, capsys):
        lf = tmp_path / "lf.pcf"
        assert run_cli("leadfield", "--builtin-1020", "--grid", "nan", "--out", lf) == 2
        assert "spacing" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_electrode_source_is_exclusive(self, tmp_path):
        code = run_cli(
            "leadfield", "--builtin-1020", "--electrodes", "x.csv",
            "--grid", 0.2, "--out", tmp_path / "lf.pcf",
        )
        assert code == 64


class TestSimulateCommand:
    def test_epochs_shape_and_truth(self, pipeline):
        recording = read_epochs_csv(pipeline["sim"] / "epochs.csv", rate=64.0)
        assert recording.data.shape == (100, 64, 19)
        truth_rows = (pipeline["sim"] / "truth.csv").read_text().splitlines()
        assert truth_rows[0] == "role,voxel_id,x,y,z"
        assert sum(1 for r in truth_rows if r.startswith("source,")) == 2
        assert sum(1 for r in truth_rows if r.startswith("bio,")) == 57

    def test_fixed_seed_reproduces_bytes(self, pipeline):
        again = pipeline["root"] / "sim_again"
        assert run_cli("simulate", "--leadfield", pipeline["lf"], "--out", again) == 0
        assert sha256(again / "epochs.csv") == sha256(pipeline["sim"] / "epochs.csv")

    def test_bad_config_reports_line(self, pipeline, tmp_path, capsys):
        config = tmp_path / "bad.txt"
        config.write_text("n_epochs = 5\nwobble = 3\n")
        code = run_cli(
            "simulate", "--config", config, "--leadfield", pipeline["lf"],
            "--out", tmp_path / "sim",
        )
        assert code == 2
        assert "bad.txt:2" in capsys.readouterr().err

    def test_missing_leadfield_file(self, tmp_path):
        code = run_cli(
            "simulate", "--leadfield", tmp_path / "nope.pcf", "--out", tmp_path / "s"
        )
        assert code == 66


class TestXspecCommand:
    def test_logs_five_alpha_bins(self, pipeline, capsys):
        out = pipeline["root"] / "alpha2.pcf"
        assert (
            run_cli(
                "xspec", "--epochs", pipeline["sim"] / "epochs.csv",
                "--rate", 64.0, "--band", "8:12", "--out", out,
            )
            == 0
        )
        assert "averaged 5 bins (8, 9, 10, 11, 12)" in capsys.readouterr().out

    def test_output_is_hermitian_with_metadata(self, pipeline):
        matrix = read_pcf1(pipeline["xspec"])
        assert matrix.shape == (19, 19)
        assert np.allclose(matrix, matrix.conj().T, atol=1e-9)
        meta = dict(
            row for row in csv.reader(
                (pipeline["root"] / "alpha.meta.csv").read_text().splitlines()
            )
            if len(row) == 2 and row[0] != "key"
        )
        assert float(meta["band_lo"]) == 8.0
        assert float(meta["band_hi"]) == 12.0
        assert meta["bins"] == "8 9 10 11 12"

    def test_loaded_spectrum_equals_in_memory(self, pipeline, tmp_path):
        # 8:11.5 Hz holds bins 8..11: bin mean 9.5 Hz, band midpoint 9.75 Hz
        out = tmp_path / "mid.pcf"
        assert (
            run_cli(
                "xspec", "--epochs", pipeline["sim"] / "epochs.csv",
                "--rate", 64.0, "--band", "8:11.5", "--out", out,
            )
            == 0
        )
        recording = read_epochs_csv(pipeline["sim"] / "epochs.csv", rate=64.0)
        expected = band_cross_spectrum(recording, 8.0, 11.5)
        loaded = _read_xspec(out)
        assert expected.frequency == 9.5
        assert np.array_equal(loaded.values, expected.values)
        assert loaded.frequency == expected.frequency
        assert loaded.band == expected.band
        assert loaded.n_epochs == expected.n_epochs

    def test_empty_band_fails_numerically(self, pipeline, tmp_path):
        code = run_cli(
            "xspec", "--epochs", pipeline["sim"] / "epochs.csv",
            "--rate", 64.0, "--band", "200:300", "--out", tmp_path / "x.pcf",
        )
        assert code == 2

    def test_malformed_band_is_usage_error(self, pipeline, tmp_path):
        code = run_cli(
            "xspec", "--epochs", pipeline["sim"] / "epochs.csv",
            "--rate", 64.0, "--band", "8-12", "--out", tmp_path / "x.pcf",
        )
        assert code == 64


class TestConnectCommand:
    def test_map_tree_per_method(self, pipeline):
        for method, out in pipeline["maps"].items():
            names = sorted(p.name for p in out.iterdir())
            seed_files = [n for n in names if n.startswith("seed_")]
            assert len(seed_files) == 19
            assert "composite.csv" in names
            assert "manifest.csv" in names
            assert ("factor.pcf" in names) == (method == "partial")

    def test_partial_factor_reloads(self, pipeline):
        factor = load_factor(pipeline["maps"]["partial"] / "factor.pcf")
        assert factor.effective_rank == 19
        assert factor.band == (8.0, 12.0)

    def test_manifest_contents(self, pipeline):
        manifest = dict(
            row for row in csv.reader(
                (pipeline["maps"]["partial"] / "manifest.csv").read_text().splitlines()
            )
            if len(row) == 2 and row[0] != "key"
        )
        assert manifest["method"] == "partial"
        assert manifest["measure"] == "lagged"
        assert manifest["tag"] == "partial_lagged"
        assert len(manifest["seeds"].split()) == 19

    def test_partial_composite_peaks_at_true_sources(self, pipeline):
        leadfield = load_leadfield(pipeline["lf"])
        expected = {
            voxel_under_electrode(leadfield, "Fp1"),
            voxel_under_electrode(leadfield, "O2"),
        }
        _, values = read_map_csv(pipeline["maps"]["partial"] / "composite.csv")
        top_two = set(np.argsort(-values, kind="stable")[:2].tolist())
        assert top_two == expected

    @pytest.mark.parametrize("method", ["partial", "classical"])
    def test_map_files_are_the_shared_analysis_path(self, pipeline, tmp_path, method):
        leadfield = load_leadfield(pipeline["lf"])
        spectrum = _read_xspec(pipeline["xspec"])
        _, maps, composite = connectivity_maps(
            leadfield, spectrum, f"{method}_lagged", electrode_seed_voxels(leadfield)
        )
        expected = {f"seed_{entry.seed}.csv": entry for entry in maps}
        written = pipeline["maps"][method]
        assert sorted(p.name for p in written.glob("seed_*.csv")) == sorted(expected)
        expected["composite.csv"] = composite
        for name, entry in expected.items():
            write_map_csv(tmp_path / name, entry, leadfield.voxels)
            assert (written / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_all_1020_on_coarse_grid_maps_each_voxel_once(self, tmp_path, capsys):
        # at spacing 0.3 the 19 electrodes sit over 15 distinct voxels
        lf, sim, xspec = tmp_path / "lf.pcf", tmp_path / "sim", tmp_path / "x.pcf"
        out = tmp_path / "maps"
        assert run_cli("leadfield", "--builtin-1020", "--grid", 0.3, "--out", lf) == 0
        assert run_cli("simulate", "--leadfield", lf, "--out", sim) == 0
        assert run_cli(
            "xspec", "--epochs", sim / "epochs.csv", "--rate", 64.0,
            "--band", "8:12", "--out", xspec,
        ) == 0
        capsys.readouterr()
        assert run_cli(
            "connect", "--leadfield", lf, "--xspec", xspec,
            "--method", "partial", "--measure", "lagged", "--out", out,
        ) == 0
        assert f"wrote 15 seeded maps + composite to {out}" in capsys.readouterr().out
        manifest = (out / "manifest.csv").read_text().splitlines()
        seeds = [row[1].split() for row in csv.reader(manifest) if row[0] == "seeds"][0]
        distinct = list(dict.fromkeys(electrode_seed_voxels(load_leadfield(lf))))
        assert seeds == [str(seed) for seed in distinct]
        files = sorted(p.name for p in out.glob("seed_*.csv"))
        assert files == sorted(f"seed_{seed}.csv" for seed in distinct)

    def test_explicit_seed_list(self, pipeline, tmp_path):
        out = tmp_path / "one_seed"
        assert (
            run_cli(
                "connect", "--leadfield", pipeline["lf"], "--xspec", pipeline["xspec"],
                "--method", "classical", "--measure", "coherence",
                "--seeds", "5", "--out", out,
            )
            == 0
        )
        seed_files = [p.name for p in out.iterdir() if p.name.startswith("seed_")]
        assert seed_files == ["seed_5.csv"]

    def test_out_of_range_seed_writes_nothing(self, pipeline, tmp_path, capsys):
        out = tmp_path / "maps"
        code = run_cli(
            "connect", "--leadfield", pipeline["lf"], "--xspec", pipeline["xspec"],
            "--method", "partial", "--measure", "lagged",
            "--seeds", "5,99999", "--out", out,
        )
        assert code == 2
        assert "99999" in capsys.readouterr().err
        assert not out.exists()

    def test_first_id_out_of_range_writes_nothing(self, pipeline, tmp_path, capsys):
        n_voxels = load_leadfield(pipeline["lf"]).n_voxels
        out = tmp_path / "maps"
        code = run_cli(
            "connect", "--leadfield", pipeline["lf"], "--xspec", pipeline["xspec"],
            "--method", "classical", "--measure", "coherence",
            "--seeds", n_voxels, "--out", out,
        )
        assert code == 2
        assert f"seed {n_voxels} out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["5,,7,", "5,5", "5,05", ""])
    def test_malformed_seed_list_writes_nothing(
        self, pipeline, tmp_path, capsys, seeds
    ):
        out = tmp_path / "maps"
        code = run_cli(
            "connect", "--leadfield", pipeline["lf"], "--xspec", pipeline["xspec"],
            "--method", "partial", "--measure", "coherence",
            "--seeds", seeds, "--out", out,
        )
        assert code == 2
        message = f"distinct comma-separated voxel ids, got {seeds!r}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_channel_count_mismatch(self, pipeline, tmp_path, capsys):
        epochs = tmp_path / "two.csv"
        epochs.write_text(
            "epoch,t,ch0,ch1\n"
            + "".join(
                f"1,{t},{0.1 * t},{0.2 * t}\n" for t in range(1, 9)
            )
        )
        xspec = tmp_path / "two.pcf"
        assert (
            run_cli(
                "xspec", "--epochs", epochs, "--rate", 8.0,
                "--band", "1:3", "--out", xspec,
            )
            == 0
        )
        code = run_cli(
            "connect", "--leadfield", pipeline["lf"], "--xspec", xspec,
            "--method", "partial", "--measure", "lagged", "--out", tmp_path / "m",
        )
        assert code == 2
        assert "19" in capsys.readouterr().err

    def test_channel_count_mismatch_writes_nothing(self, pipeline, tmp_path):
        epochs = tmp_path / "two.csv"
        epochs.write_text(
            "epoch,t,ch0,ch1\n"
            + "".join(f"1,{t},{0.1 * t},{0.2 * t}\n" for t in range(1, 9))
        )
        xspec = tmp_path / "two.pcf"
        assert (
            run_cli(
                "xspec", "--epochs", epochs, "--rate", 8.0,
                "--band", "1:3", "--out", xspec,
            )
            == 0
        )
        out = tmp_path / "m"
        code = run_cli(
            "connect", "--leadfield", pipeline["lf"], "--xspec", xspec,
            "--method", "partial", "--measure", "lagged", "--out", out,
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["partial", "classical"])
    def test_zero_spectrum_writes_nothing(self, pipeline, tmp_path, capsys, method):
        xspec = tmp_path / "zero.pcf"
        write_pcf1(xspec, np.zeros((19, 19), dtype=complex))
        shutil.copy(pipeline["root"] / "alpha.meta.csv", tmp_path / "zero.meta.csv")
        out = tmp_path / "m"
        code = run_cli(
            "connect", "--leadfield", pipeline["lf"], "--xspec", xspec,
            "--method", method, "--measure", "lagged", "--out", out,
        )
        assert code == 2
        assert "pcfield: " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_meta_file_is_missing_input(self, pipeline, tmp_path):
        xspec = tmp_path / "alpha.pcf"
        shutil.copy(pipeline["xspec"], xspec)
        code = run_cli(
            "connect", "--leadfield", pipeline["lf"], "--xspec", xspec,
            "--method", "partial", "--measure", "lagged", "--out", tmp_path / "m",
        )
        assert code == 66

    @pytest.mark.parametrize(
        "meta",
        [
            "key,value\nband_lo,8.0\nband_hi,12.0\nn_epochs,100\n",
            "key,value\nband_lo,8.0\nband_hi,12.0\nfrequency,10.0\nn_epochs,100,1\n",
            "key,value\nband_lo,8.0\nband_hi,12.0\nfrequency,ten\nn_epochs,100\n",
        ],
        ids=["missing_frequency", "malformed_row", "bad_value"],
    )
    def test_malformed_meta_is_format_error(self, pipeline, tmp_path, capsys, meta):
        xspec = tmp_path / "alpha.pcf"
        shutil.copy(pipeline["xspec"], xspec)
        (tmp_path / "alpha.meta.csv").write_text(meta)
        code = run_cli(
            "connect", "--leadfield", pipeline["lf"], "--xspec", xspec,
            "--method", "partial", "--measure", "lagged", "--out", tmp_path / "m",
        )
        assert code == 2
        assert "alpha.meta.csv" in capsys.readouterr().err


class TestRenderCommand:
    def test_ppm_header_and_size(self, pipeline):
        raw = pipeline["ppm"].read_bytes()
        assert raw.startswith(b"P6\n320 112\n255\n")
        assert len(raw) == 15 + 320 * 112 * 3

    def test_deterministic_bytes(self, pipeline, tmp_path):
        again = tmp_path / "again.ppm"
        assert (
            run_cli(
                "render", "--map", pipeline["maps"]["partial"] / "composite.csv",
                "--out", again,
            )
            == 0
        )
        assert sha256(again) == sha256(pipeline["ppm"])

    def test_constant_map_renders_uniform_panels(self, tmp_path):
        grid = spherical_grid(0.4)
        flat = SeededMap(
            seed=None, values=np.full(len(grid), 0.5), measure="partial_lagged"
        )
        map_path = tmp_path / "flat.csv"
        write_map_csv(map_path, flat, grid)
        out = tmp_path / "flat.ppm"
        assert run_cli("render", "--map", map_path, "--out", out) == 0
        pixels = np.frombuffer(out.read_bytes()[15:], dtype=np.uint8).reshape(-1, 3)
        colors = {tuple(int(c) for c in row) for row in pixels}
        # background plus one saturated color
        assert colors == {(0, 0, 0), (255, 255, 255)}

    def test_scale_percent_validated(self, pipeline, tmp_path):
        code = run_cli(
            "render", "--map", pipeline["maps"]["partial"] / "composite.csv",
            "--out", tmp_path / "x.ppm", "--scale-percent", "0",
        )
        assert code == 64

    def test_non_numeric_scale_percent_is_usage_error(self, pipeline, tmp_path):
        code = run_cli(
            "render", "--map", pipeline["maps"]["partial"] / "composite.csv",
            "--out", tmp_path / "x.ppm", "--scale-percent", "abc",
        )
        assert code == 64
        assert not (tmp_path / "x.ppm").exists()


class TestCompareCommand:
    def test_scores_both_methods(self, pipeline):
        with open(pipeline["scores"], newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "measure", "localization_error"]
        scored = {row[0]: float(row[2]) for row in rows[1:]}
        assert set(scored) == {"partial", "classical"}
        assert scored["partial"] <= scored["classical"]
        assert scored["partial"] <= 2.0

    def test_single_directory_single_row(self, pipeline, tmp_path):
        out = tmp_path / "one.csv"
        assert (
            run_cli(
                "compare", "--maps", pipeline["maps"]["partial"],
                "--truth", pipeline["sim"] / "truth.csv", "--out", out,
            )
            == 0
        )
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 2

    def test_truth_without_source_rows_is_format_error(self, pipeline, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        lines = (pipeline["sim"] / "truth.csv").read_text().splitlines()
        truth.write_text(
            "\n".join(line for line in lines if not line.startswith("source,")) + "\n"
        )
        code = run_cli(
            "compare", "--maps", pipeline["maps"]["partial"], "--truth", truth,
            "--out", tmp_path / "s.csv",
        )
        assert code == 2
        assert "no source rows" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("repeat", "repeated source voxel id {voxel}"),
            ("unknown_id", "source 100000 "),
            ("moved", "source {voxel} "),
        ],
        ids=["repeat", "unknown_id", "moved"],
    )
    def test_truth_sources_must_be_distinct_map_rows(
        self, pipeline, tmp_path, capsys, edit, message
    ):
        # each map is checked against the truth, so a source the map does not
        # hold at that id is refused before any score is written
        lines = (pipeline["sim"] / "truth.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("source,"))
        role, voxel, x, y, z = lines[row].split(",")
        if edit == "repeat":
            lines.insert(row, lines[row])
        elif edit == "unknown_id":
            lines[row] = ",".join([role, "100000", x, y, z])
        else:
            lines[row] = ",".join([role, voxel, repr(float(x) + 0.5), y, z])
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.csv"
        code = run_cli(
            "compare", "--maps", pipeline["maps"]["partial"], "--truth", truth,
            "--out", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "truth.csv" in err and message.format(voxel=voxel) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "manifest",
        ["key,value\nmethod,partial\n", "key,value\nmethod,partial\nmeasure\n"],
        ids=["missing_measure", "malformed_row"],
    )
    def test_manifest_is_validated(self, pipeline, tmp_path, manifest):
        maps = tmp_path / "maps"
        shutil.copytree(pipeline["maps"]["partial"], maps)
        (maps / "manifest.csv").write_text(manifest)
        code = run_cli(
            "compare", "--maps", maps, "--truth", pipeline["sim"] / "truth.csv",
            "--out", tmp_path / "s.csv",
        )
        assert code == 2

    def test_one_voxel_composite_is_refused(self, pipeline, tmp_path, capsys):
        maps = tmp_path / "maps"
        shutil.copytree(pipeline["maps"]["partial"], maps)
        composite = maps / "composite.csv"
        composite.write_text("".join(composite.read_text().splitlines(True)[:2]))
        out = tmp_path / "s.csv"
        code = run_cli(
            "compare", "--maps", maps, "--truth", pipeline["sim"] / "truth.csv",
            "--out", out,
        )
        assert code == 2
        assert "need at least two positions" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_truth_file(self, pipeline, tmp_path):
        code = run_cli(
            "compare", "--maps", pipeline["maps"]["partial"],
            "--truth", tmp_path / "gone.csv", "--out", tmp_path / "s.csv",
        )
        assert code == 66


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--leadfield", "{dir}", "--out", "{out}"],
        ["xspec", "--epochs", "{dir}", "--rate", "64", "--band", "8:12", "--out", "{out}"],
        [
            "connect", "--leadfield", "{lf}", "--xspec", "{dir}",
            "--method", "partial", "--measure", "lagged", "--out", "{out}",
        ],
        ["render", "--map", "{dir}", "--out", "{out}"],
        ["compare", "--maps", "{maps}", "--truth", "{dir}", "--out", "{out}"],
    ],
    ids=["simulate", "xspec", "connect", "render", "compare"],
)
def test_directory_as_input_file_is_missing_input(pipeline, tmp_path, command):
    fields = {
        "dir": tmp_path, "out": tmp_path / "out", "lf": pipeline["lf"],
        "maps": pipeline["maps"]["partial"],
    }
    assert run_cli(*(arg.format(**fields) for arg in command)) == 66


@pytest.mark.parametrize(
    "command",
    [
        ["leadfield", "--builtin-1020", "--grid", "0.2", "--out", "{dir}"],
        ["leadfield", "--builtin-1020", "--grid", "0.2", "--out", "{nodir}/lf.pcf"],
        ["simulate", "--leadfield", "{lf}", "--out", "{file}/sim"],
        [
            "xspec", "--epochs", "{epochs}", "--rate", "64", "--band", "8:12",
            "--out", "{nodir}/alpha.pcf",
        ],
        [
            "connect", "--leadfield", "{lf}", "--xspec", "{xspec}",
            "--method", "partial", "--measure", "lagged", "--out", "{file}/maps",
        ],
        ["render", "--map", "{map}", "--out", "{dir}"],
        ["compare", "--maps", "{maps}", "--truth", "{truth}", "--out", "{nodir}/s.csv"],
    ],
    ids=[
        "leadfield-directory", "leadfield-missing-parent", "simulate-file-parent",
        "xspec", "connect", "render", "compare",
    ],
)
def test_output_that_cannot_be_created(pipeline, tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    fields = {
        "dir": tmp_path, "nodir": tmp_path / "nodir", "file": tmp_path / "file",
        "lf": pipeline["lf"], "epochs": pipeline["sim"] / "epochs.csv",
        "xspec": pipeline["xspec"], "map": pipeline["maps"]["partial"] / "composite.csv",
        "maps": pipeline["maps"]["partial"], "truth": pipeline["sim"] / "truth.csv",
    }
    assert run_cli(*(arg.format(**fields) for arg in command)) == 73
    assert capsys.readouterr().err.startswith("pcfield: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize(
    "command, blocked",
    [
        (["leadfield", "--builtin-1020", "--grid", "0.2"], "out.voxels.csv"),
        (["leadfield", "--builtin-1020", "--grid", "0.2"], "out.electrodes.csv"),
        (
            ["xspec", "--epochs", "{epochs}", "--rate", "64", "--band", "8:12"],
            "out.meta.csv",
        ),
    ],
    ids=["leadfield-voxels", "leadfield-electrodes", "xspec-meta"],
)
def test_failed_sidecar_write_leaves_no_primary_file(
    pipeline, tmp_path, command, blocked
):
    # the sidecars are written first, so the primary file never exists
    # without them
    (tmp_path / blocked).mkdir()
    epochs = pipeline["sim"] / "epochs.csv"
    argv = [arg.format(epochs=epochs) for arg in command]
    assert run_cli(*argv, "--out", tmp_path / "out.pcf") == 73
    assert not (tmp_path / "out.pcf").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["leadfield", "--builtin-1020", "--grid", "0.2"],
        ["xspec", "--epochs", "{epochs}", "--rate", "64", "--band", "8:12"],
    ],
    ids=["leadfield", "xspec"],
)
def test_failed_primary_write_leaves_no_sidecars(pipeline, tmp_path, command):
    # the primary path is a directory, so its write fails after the sidecars
    blocked = tmp_path / "out"
    blocked.mkdir()
    argv = [arg.format(epochs=pipeline["sim"] / "epochs.csv") for arg in command]
    assert run_cli(*argv, "--out", blocked) == 73
    assert [path.name for path in tmp_path.iterdir()] == ["out"]
    assert list(blocked.iterdir()) == []


@pytest.mark.parametrize("blocked", ["last-seed", "manifest.csv"])
@pytest.mark.parametrize("method", ["partial", "classical"])
def test_failed_connect_write_leaves_only_the_blocking_entry(
    pipeline, tmp_path, method, blocked
):
    # a later output is a directory, so its write fails after the earlier
    # maps were written; they are removed again
    if blocked == "last-seed":
        manifest = (pipeline["maps"][method] / "manifest.csv").read_text()
        blocked = f"seed_{manifest.rsplit(',', 1)[1].split()[-1]}.csv"
    out = tmp_path / "maps"
    (out / blocked).mkdir(parents=True)
    code = run_cli(
        "connect", "--leadfield", pipeline["lf"], "--xspec", pipeline["xspec"],
        "--method", method, "--measure", "lagged", "--out", out,
    )
    assert code == 73
    assert [path.name for path in out.iterdir()] == [blocked]


@pytest.mark.parametrize("blocked", ["truth.csv", "config.txt"])
def test_failed_simulate_write_leaves_only_the_blocking_entry(
    pipeline, tmp_path, blocked
):
    out = tmp_path / "sim"
    (out / blocked).mkdir(parents=True)
    assert run_cli("simulate", "--leadfield", pipeline["lf"], "--out", out) == 73
    assert [path.name for path in out.iterdir()] == [blocked]


def test_missing_input_inside_out_directory_is_missing_input(tmp_path):
    code = run_cli("simulate", "--leadfield", tmp_path / "gone.pcf", "--out", tmp_path)
    assert code == 66


def with_bad_cell(source, dest, cell):
    """Copy a CSV table with the last field of its first row set to ``cell``."""
    lines = source.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + cell
    dest.write_text("\n".join(lines) + "\n")
    return dest


class TestMalformedTables:
    """A bad cell in any table the CLI reads is a format error, exit 2."""

    @pytest.mark.parametrize("cell", ["zero", "nan"])
    def test_render_bad_map_value(self, pipeline, tmp_path, capsys, cell):
        bad = with_bad_cell(
            pipeline["maps"]["partial"] / "composite.csv", tmp_path / "map.csv", cell
        )
        assert run_cli("render", "--map", bad, "--out", tmp_path / "x.ppm") == 2
        assert "map.csv:2" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["zero", "nan"])
    def test_compare_bad_truth_coordinate(self, pipeline, tmp_path, cell):
        truth = with_bad_cell(pipeline["sim"] / "truth.csv", tmp_path / "truth.csv", cell)
        code = run_cli(
            "compare", "--maps", pipeline["maps"]["partial"], "--truth", truth,
            "--out", tmp_path / "s.csv",
        )
        assert code == 2
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("cell", ["zero", "nan"])
    @pytest.mark.parametrize("sidecar", ["voxels", "electrodes"])
    def test_simulate_bad_sidecar(self, pipeline, tmp_path, sidecar, cell):
        for suffix in (".pcf", ".voxels.csv", ".electrodes.csv"):
            shutil.copy(pipeline["root"] / f"lf{suffix}", tmp_path / f"lf{suffix}")
        table = tmp_path / f"lf.{sidecar}.csv"
        with_bad_cell(table, table, cell)
        lf = tmp_path / "lf.pcf"
        assert run_cli("simulate", "--leadfield", lf, "--out", tmp_path / "s") == 2

    @pytest.mark.parametrize("cell", ["zero", "nan"])
    @pytest.mark.parametrize("table", ["voxels", "electrodes"])
    def test_leadfield_bad_import(self, pipeline, tmp_path, table, cell):
        bad = with_bad_cell(
            pipeline["root"] / f"lf.{table}.csv", tmp_path / f"{table}.csv", cell
        )
        source = ["--voxels", bad] if table == "voxels" else ["--grid", 0.2]
        montage = ["--electrodes", bad] if table == "electrodes" else ["--builtin-1020"]
        code = run_cli("leadfield", *montage, *source, "--out", tmp_path / "lf.pcf")
        assert code == 2
        assert not (tmp_path / "lf.pcf").exists()


class TestTopLevel:
    def test_no_arguments_is_usage_error(self):
        assert run_cli() == 64

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("transmogrify") == 64

    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0
        assert "pcfield" in capsys.readouterr().out
