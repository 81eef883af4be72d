from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from trimlab.cli import _fmt, _parse_box, emit, main


def run_cli(args):
    return main(args)


def test_parse_box():
    box = _parse_box("1..5,2..4")
    assert box.lo == (1, 2) and box.hi == (5, 4)
    from trimlab.cli import ConfigError

    with pytest.raises(ConfigError):
        _parse_box("1-5")


def test_verify_default_instance(tmp_path):
    code = run_cli(["verify", "--out", str(tmp_path), "--seed", "0"])
    assert code == 0
    lines = (tmp_path / "verify.csv").read_text().strip().splitlines()
    assert lines[0] == "check,residual,tolerance,pass"
    for line in lines[1:]:
        assert line.endswith(",1"), f"identity failed: {line}"
    summary = json.loads((tmp_path / "verify.json").read_text())
    assert summary["experiment"] == "verify"
    assert summary["config"]["seed"] == 0


def test_localize_schema_and_determinism(tmp_path):
    common = [
        "localize",
        "--seed",
        "3",
        "--epsilon",
        "0.1,0.01",
        "--samples",
        "30",
    ]
    assert run_cli(common + ["--out", str(tmp_path / "a"), "--threads", "1"]) == 0
    assert run_cli(common + ["--out", str(tmp_path / "b"), "--threads", "4"]) == 0
    a = (tmp_path / "a" / "localize.csv").read_bytes()
    b = (tmp_path / "b" / "localize.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "box_size,s,eta,epsilon,chi_estimate,stderr,samples"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": 2.0, "samples": 10, "epsilon": [0.1]}))
    out = tmp_path / "out"
    code = run_cli(
        ["localize", "--config", str(cfg), "--out", str(out), "--g", "7.0"]
    )
    assert code == 0
    summary = json.loads((out / "localize.json").read_text())
    assert summary["config"]["g"] == 7.0  # flag wins
    assert summary["config"]["samples"] == 10  # file survives


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gg": 2.0}))
    assert run_cli(["localize", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "text, kind",
    [
        ("5", "int"),
        ("null", "NoneType"),
        ("[[1]]", "list"),
        ('"ab"', "str"),
        ("[1]", "list"),
    ],
)
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, text, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_cli(["lattice-info", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config file must hold a JSON object, not {kind}" in err


def test_negative_box_start_needs_the_equals_form(tmp_path, capsys):
    # argparse takes the -2..0 of `--box -2..0` for an option; the help
    # names the form that works
    args = ["lattice-info", "--box=-2..0", "--gamma", "full", "--out", str(tmp_path)]
    assert run_cli(args) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(["lattice-info", "--box", "-2..0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run_cli(["lattice-info", "--help"])
    assert "--box=lo..hi" in capsys.readouterr().out


def test_box_beyond_int64_coordinates_exits_2(tmp_path):
    box = "10000000000000000000..10000000000000000004,0..4"
    assert run_cli(["lattice-info", "--box", box, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "box", ["0..65535,0..65535,0..65535,0..65535", "0..2097152,0..2097152,0..2097152"]
)
def test_box_size_past_int64_exits_2_at_the_dense_limit(tmp_path, capsys, box):
    # 2**64 and (2**21 + 1)**3 sites: a size taken modulo 2**64 read 0 and
    # a negative number, passed the dense limit and failed after dispatch
    args = ["verify", "--box", box, "--gamma", "full", "--out", str(tmp_path)]
    assert run_cli(args) == 2
    assert "over the dense limit" in capsys.readouterr().err
    assert not (tmp_path / "verify.csv").exists()


def test_localize_admits_a_box_by_its_slice_working_set(tmp_path, capsys):
    # 3001 slices of 2 sites: 6002 sites, over the site limit of the dense
    # experiments, but L W**2 + W n = 24008 entries on the slice route
    args = ["localize", "--box", "1..3001,1..2", "--samples", "1"]
    assert run_cli(args + ["--out", str(tmp_path / "long")]) == 0
    # 2 slices of 3001 sites: 4 * 3001**2 = 36024004 entries, just over the
    # limit of 6000**2; and 2**64 sites, past int64
    for box, gamma in (("1..2,1..3001", "gamma1:2,2"), ("0..65535," * 3 + "0..65535", "full")):
        args = ["localize", "--box", box, "--gamma", gamma, "--samples", "1"]
        assert run_cli(args + ["--out", str(tmp_path / "over")]) == 2
        assert "over the limit DENSE_LIMIT**2 = 36000000" in capsys.readouterr().err
    assert not (tmp_path / "over" / "localize.csv").exists()


def test_malformed_gamma_exits_2(tmp_path):
    assert run_cli(["localize", "--gamma", "bogus:1", "--out", str(tmp_path)]) == 2


WEGNER = ["wegner", "--box", "1..3,1..1", "--gamma", "gamma1:2,2", "--samples", "5"]


def test_wegner_defaults_fail_its_hypotheses_where_its_example_runs(tmp_path, capsys):
    # at the CLI defaults (box 1..5,1..5, gamma1:2,2, E = 4) an eigenvector
    # of H(0) at E lives mostly on Gamma; README's example box does not
    assert run_cli(["wegner", "--samples", "50", "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert "support precondition fails" in err and "Gamma mass 0.987" in err
    example = ["wegner", "--box", "1..3,1..1", "--gamma", "gamma1:2,2", "--g", "10"]
    example += ["--energy", "4.0", "--epsilon", "0.4,0.2,0.1", "--samples", "200"]
    assert run_cli(example + ["--out", str(tmp_path / "e")]) == 0


def test_numeric_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a collision found while sampling is numeric (exit 3), not a config error
    import trimlab.cli as cli
    from trimlab.spectral import SpectralParameterOnSpectrum

    def collide(*args, **kwargs):
        raise SpectralParameterOnSpectrum("z = 4.0 lies on the spectrum")

    monkeypatch.setattr(cli, "wegner_count", collide)
    args = WEGNER + ["--energy", "4.0", "--epsilon", "0.1"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 3
    assert "lies on the spectrum" in capsys.readouterr().err
    assert not (tmp_path / "wegner.csv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--energy", "3.17", "--epsilon", "0.1"], "is not in sigma(H(0)|_B)"),
        (["--energy", "4.0", "--epsilon", "0.1,0.5"], "exceeds gap/3"),
        (["--energy", "4.0", "--box", "1..5,1..5"], "support precondition fails"),
    ],
    ids=["not-an-eigenvalue", "eps-over-gap", "support"],
)
def test_wegner_preconditions_exit_2(tmp_path, capsys, flags, message):
    # decided from H(0) before any sampling
    assert run_cli(WEGNER + flags + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "wegner.csv").exists()


@pytest.mark.parametrize(
    "box, gamma",
    [
        ("1..3", "gamma1:2,2"),
        ("1..3", "gamma2:3"),
        ("1..3,1..3,1..3", "cell:2x2:1010"),
    ],
)
def test_mask_dimension_mismatch_exits_2(tmp_path, capsys, box, gamma):
    args = ["verify", "--box", box, "--gamma", gamma, "--out", str(tmp_path)]
    assert run_cli(args) == 2
    assert "dimensional" in capsys.readouterr().err
    assert not (tmp_path / "verify.csv").exists()


@pytest.mark.parametrize(
    "box, gamma", [("1..3", "full"), ("1..3", "bernoulli:0.5"), ("1..4", "cell:2:10")]
)
def test_masks_of_any_or_matching_dimension_run(tmp_path, box, gamma):
    args = ["verify", "--box", box, "--gamma", gamma, "--out", str(tmp_path)]
    assert run_cli(args) == 0


def test_wegner_run(tmp_path):
    code = run_cli(
        [
            "wegner",
            "--out",
            str(tmp_path),
            "--box",
            "1..3,1..1",
            "--gamma",
            "gamma1:2,2",
            "--g",
            "10",
            "--energy",
            "4.0",
            "--epsilon",
            "0.4,0.2",
            "--samples",
            "100",
            "--seed",
            "8",
        ]
    )
    assert code == 0
    lines = (tmp_path / "wegner.csv").read_text().strip().splitlines()
    assert lines[0].startswith("epsilon,p_excess")
    assert len(lines) == 3


def test_wegner_builds_h0_and_its_spectrum_once(tmp_path, monkeypatch):
    # the preconditions and the counts read one H(0) and one
    # eigendecomposition of it, beside the one of the single chunk
    import trimlab.cli as cli
    from trimlab.operators import assemble
    from trimlab.spectral import eigendecompose

    calls = Counter()
    for real in (assemble, eigendecompose):

        def counting(*args, _real=real, **kwargs):
            calls[_real.__name__] += 1
            return _real(*args, **kwargs)

        name = real.__name__
        for module in [m for k, m in sys.modules.items() if k.startswith("trimlab")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    args = ["wegner", "--box", "1..3,1..1", "--gamma", "gamma1:2,2", "--g", "10"]
    args += ["--energy", "4", "--epsilon", "0.4,0.2", "--samples", "100"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 0
    assert calls == {"assemble": 1, "eigendecompose": 2}


def test_lattice_info_run(tmp_path):
    code = run_cli(
        ["lattice-info", "--out", str(tmp_path), "--gamma", "gamma1:2,2"]
    )
    assert code == 0
    text = (tmp_path / "lattice-info.csv").read_text()
    assert "density" in text and "insulated" in text


def test_anomalous_run(tmp_path):
    code = run_cli(
        [
            "anomalous",
            "--out",
            str(tmp_path),
            "--gamma",
            "gamma2:3",
            "--box",
            "0..6,0..6",
            "--energy",
            "4.0",
        ]
    )
    assert code == 0
    text = (tmp_path / "anomalous.csv").read_text()
    assert "gamma2-eigenfunction" in text


def test_config_roundtrip(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["lattice-info", "--out", str(out), "--seed", "5"]) == 0
    summary = json.loads((out / "lattice-info.json").read_text())
    cfg2 = tmp_path / "echo.json"
    echo = {
        k: v
        for k, v in summary["config"].items()
        if k not in ("out", "threads")
    }
    cfg2.write_text(json.dumps(echo))
    out2 = tmp_path / "out2"
    assert run_cli(["lattice-info", "--config", str(cfg2), "--out", str(out2)]) == 0
    a = (out / "lattice-info.csv").read_bytes()
    b = (out2 / "lattice-info.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "TRIMLAB_THREADS"),
        ("1.5", "TRIMLAB_THREADS"),
        (" ", "TRIMLAB_THREADS"),
        ("0", "field 'threads' must be >= 1"),
    ],
    ids=["abc", "1.5", " ", "0"],
)
def test_bad_trimlab_threads_exits_2(tmp_path, monkeypatch, capsys, value, message):
    # a thread count of 0 is an integer, and as bad as one from --threads
    monkeypatch.setenv("TRIMLAB_THREADS", value)
    assert run_cli(["lattice-info", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "lattice-info.csv").exists()


def test_emit_quotes_fields_with_commas(tmp_path):
    record = {
        "experiment": "couple",
        "header": ["check", "value", "bound", "pass"],
        "rows": [
            ["weak-bound-error:need a, b", 0.0, 0.5, False],
            ["weak-bound", 1.25, 2.0, True],
        ],
    }
    csv_path, _ = emit(record, str(tmp_path))
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "weak-bound-error:need a, b"
    assert rows[1][1:] == ["0.0000000000000000e+00", "5.0000000000000000e-01", "0"]
    # plain rows keep the unquoted, newline-terminated layout
    assert csv_path.read_bytes().endswith(
        b"\nweak-bound,1.2500000000000000e+00,2.0000000000000000e+00,1\n"
    )


def test_one_sample_stderr_is_inf_in_dynamics_and_localize(tmp_path):
    # one realization has no standard error: every experiment prints inf
    common = ["--box", "1..3,1..3", "--samples", "1", "--epsilon", "0.1,0.01"]
    for experiment in ("dynamics", "localize"):
        assert run_cli([experiment, *common, "--out", str(tmp_path)]) == 0
        with open(tmp_path / f"{experiment}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # dynamics' Laplace row (t = -1) carries its verdict, not an error
        errors = [row["stderr"] for row in rows if row.get("t", "") != _fmt(-1.0)]
        assert len(errors) == (6 if experiment == "dynamics" else 2)
        assert set(errors) == {"inf"}


def test_dynamics_run_matches_library(tmp_path):
    from trimlab.disorder import spec_from_descriptor
    from trimlab.dynamics import laplace_moment_check, moment_Mp, pmoment_probe
    from trimlab.fracmoment import EnsembleSpec
    from trimlab.lattice import Gamma1Mask, make_box

    args = ["dynamics", "--box", "1..5,1..5", "--samples", "6", "--seed", "11"]
    args += ["--epsilon", "0.01,0.1,0.001"]
    assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
    text = (tmp_path / "a" / "dynamics.csv").read_bytes()
    assert text == (tmp_path / "b" / "dynamics.csv").read_bytes()
    with open(tmp_path / "a" / "dynamics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "p", "Mp", "stderr"]
    values = [[float(v) for v in row] for row in rows[1:]]
    assert [r[0] for r in values] == [0.5, 1.0, 2.0, 4.0, -1.0, -2.0, -2.0, -2.0]
    assert all(r[1] == 2.0 for r in values)

    ens = EnsembleSpec(
        make_box(2, (1, 1), (5, 5)),
        Gamma1Mask(2, 2),
        spec_from_descriptor("uniform:0,1"),
        5.0,
        master_seed=11,
        samples=6,
    )
    x = (3, 3)
    for t, row in zip((0.5, 1.0, 2.0, 4.0), values):
        assert row[2] == pytest.approx(moment_Mp(ens, x, t, 2.0), rel=1e-12)
    chk = laplace_moment_check(ens, 4.0, 0.01, 2.0, x)
    assert values[4][2] == pytest.approx(chk["margin"], rel=1e-12)
    assert values[4][3] == 1.0 and chk["holds"]
    probe = pmoment_probe(ens, 4.0, [0.1, 0.01, 0.001], 2.0, x)
    for row, ref in zip(values[5:], probe["rows"]):
        assert row[2] == pytest.approx(ref["S"], rel=1e-12)
        assert row[3] == pytest.approx(ref["stderr"], rel=1e-12)


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"times": [1.0, float("nan")]}, []),
        ({"times": "1,2"}, []),
        ({"p": -1.0}, []),
        ({"p": float("inf")}, []),
        ({}, ["--box", "1..80,1..80"]),
        ({}, ["--epsilon", "0.1,inf"]),
        ({"epsilon": None}, []),
        ({"epsilon": []}, []),
    ],
    ids=[
        "times-nan",
        "times-not-list",
        "p-negative",
        "p-infinite",
        "box-over-limit",
        "epsilon-infinite",
        "epsilon-null",
        "epsilon-empty",
    ],
)
def test_bad_dynamics_config_exits_2(tmp_path, capsys, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run_cli(["dynamics", "--config", str(cfg), "--out", str(tmp_path)] + flags)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "dynamics.csv").exists()


@pytest.mark.parametrize(
    "field, value, epsilon",
    [
        ("g", "nan", "0.1,0.2"),
        ("s", "nan", "0.1"),
        ("eta", "inf", "0.1"),
        ("energy", "inf", "0.1"),
    ],
    ids=["g-nan", "s-nan", "eta-inf", "energy-inf"],
)
def test_non_finite_number_exits_2(tmp_path, capsys, field, value, epsilon):
    # a NaN g wrote NaN rows with exit 0 at one eps and failed with exit 3 at two
    args = ["localize", "--box", "1..3,1..1", "--samples", "5", "--epsilon", epsilon]
    assert run_cli(args + [f"--{field}", value, "--out", str(tmp_path)]) == 2
    assert f"field '{field}' must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "localize.csv").exists()


@pytest.mark.parametrize("epsilon", ["1e-300", "1e-170", "0.1,1e-300"])
def test_localize_at_a_singular_slice_block_exits_3(tmp_path, capsys, epsilon):
    # z = 4 + i eps is an eigenvalue of a slice block to within rounding: the
    # complement fold wrote a nan row with exit 0 here; the message names
    # the failing z, not the one before it
    args = ["localize", "--box", "1..5,1..5", "--samples", "20", "--epsilon", epsilon]
    assert run_cli(args + ["--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    z = complex(4, float(epsilon.split(",")[-1]))
    assert f"LinAlgError: Singular matrix at z = {z}, slice " in err
    assert not (tmp_path / "localize.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("poison", ["nan", "spread"])
def test_localize_non_finite_chi_exits_3(tmp_path, monkeypatch, capsys, poison):
    # a nan estimate, or a finite estimate whose stderr overflows
    from trimlab import fracmoment

    real = fracmoment._slice_sums

    def poisoned(*args):
        sums = real(*args)
        if poison == "nan":
            sums[0][0, 0] = np.nan
        else:
            sums[0][:] = 1e200
            sums[0][::2] = 3e200
        return sums

    monkeypatch.setattr(fracmoment, "_slice_sums", poisoned)
    args = ["localize", "--box", "1..3,1..3", "--samples", "4", "--epsilon", "0.1,0.01"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "ArithmeticError" in err and "z = (4+0.1j)" in err
    assert not (tmp_path / "localize.csv").exists()


@pytest.mark.parametrize("experiment", ["dynamics", "localize"])
def test_repeated_epsilon_exits_2(tmp_path, capsys, experiment):
    args = [experiment, "--box", "1..5,1..5", "--samples", "2", "--epsilon", "0.1,0.1"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert "epsilon values must be distinct" in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


@pytest.mark.parametrize(
    "experiment, flags, message",
    [
        ("localize", ["--eta", "-1"], "field 'eta'"),
        ("couple", ["--eta", "-1"], "field 'eta'"),
        ("dynamics", ["--eta", "-1"], "field 'eta'"),
        ("localize", ["--s", "0"], "field 's'"),
        ("localize", ["--s", "1.5"], "field 's'"),
        ("couple", ["--s", "1"], "field 's'"),
        ("dynamics", ["--epsilon", "1e-320"], "field 'epsilon'"),
        ("dynamics", ["--epsilon", "0.1,1e-200"], "field 'epsilon'"),
        ("dynamics", ["--epsilon", "1e200"], "field 'epsilon'"),
        ("localize", ["--threads", "0"], "field 'threads' must be >= 1"),
    ],
    ids=[
        "localize-eta", "couple-eta", "dynamics-eta", "localize-s0", "localize-s1.5",
        "couple-s1", "dynamics-eps-1e-320", "dynamics-eps-1e-200", "dynamics-eps-1e200",
        "localize-threads0",
    ],
)
def test_out_of_range_field_exits_2_before_dispatch(
    tmp_path, monkeypatch, capsys, experiment, flags, message
):
    # a negative eta escaped as a traceback (exit 1), s outside (0, 1] exited
    # 3 from localize's engine, an eps whose square underflows wrote a NaN
    # Laplace row with exit 0, and one whose square overflows exited 3; a
    # thread count of 0 ran
    import trimlab.cli as cli

    def dispatched(*args):
        raise AssertionError("dispatched")

    monkeypatch.setattr(cli, "run", dispatched)
    args = [experiment, "--box", "0..2", "--gamma", "full", "--samples", "2"]
    assert run_cli(args + flags + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_dynamics_accepts_an_eps_whose_square_is_subnormal(tmp_path):
    args = ["dynamics", "--box", "0..2", "--gamma", "full", "--epsilon", "1e-160"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 0
    rows = list(csv.reader((tmp_path / "dynamics.csv").open()))
    assert "nan" not in {value for row in rows for value in row}


def test_couple_solves_g_of_h0_once(tmp_path, monkeypatch):
    # both hedgehog checks and the weak bound read one G_z[H(0)]: per hedgehog
    # check the base and pendant right-hand sides, plus that one solve
    from trimlab import coupling, fracmoment, spectral
    import trimlab.cli as cli

    sizes = []
    real = spectral.green

    def counting(h, z):
        sizes.append(np.shape(getattr(h, "matrix", h))[-1])
        return real(h, z)

    for module in (cli, coupling, fracmoment, spectral):
        monkeypatch.setattr(module, "green", counting)
    assert run_cli(["couple", "--gamma", "full", "--out", str(tmp_path)]) == 0
    assert sizes.count(25) == 5


def test_couple_one_sample_exits_2(tmp_path, capsys):
    # a one-sample weak-bound check has no standard error to judge it by
    args = ["couple", "--box", "1..4", "--gamma", "full", "--g", "0.01"]
    args += ["--energy=-1", "--epsilon", "1e-4", "--s", "0.5", "--samples", "1"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert "couple needs samples >= 2" in capsys.readouterr().err
    assert not (tmp_path / "couple.csv").exists()


def test_lattice_info_accepts_box_over_dense_limit(tmp_path):
    # lattice-info builds no operator, so the dense limit does not apply
    args = ["lattice-info", "--box", "0..7000", "--gamma", "full"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("v0", ["bogus", [1, 2]], ids=["not-a-number", "wrong-length"])
def test_bad_v0_exits_2(tmp_path, capsys, v0):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v0": v0}))
    args = ["verify", "--config", str(cfg), "--box", "1..3,1..3"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "v0" in err
    assert not (tmp_path / "verify.csv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        ([], "gamma must cover the box"),
        (["--gamma", "full", "--s", "1"], "0 < s < 1"),
        (["--gamma", "full", "--s", "0"], "0 < s < 1"),
    ],
    ids=["default-gamma", "s-one", "s-zero"],
)
def test_couple_preconditions_exit_2(tmp_path, capsys, flags, message):
    # the default config (gamma1:2,2) leaves sites without disorder
    assert run_cli(["couple", "--out", str(tmp_path)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "couple.csv").exists()


@pytest.mark.parametrize("g", ["0", "-5"])
@pytest.mark.parametrize(
    "args",
    [
        ["couple", "--box", "1..3,1..3", "--gamma", "full", "--samples", "5"],
        ["wegner", "--box", "1..3,1..1", "--energy", "4", "--epsilon", "0.4"],
    ],
    ids=["couple", "wegner"],
)
def test_nonpositive_g_exits_2(tmp_path, capsys, args, g):
    # couple's g^-s is complex or 1/0, and wegner's mass bound vacuous
    assert run_cli([*args, "--g", g, "--out", str(tmp_path)]) == 2
    assert "field 'g'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_dynamics_overflowing_phase_exits_3(tmp_path, capsys):
    # t E leaves the float range in e^{itE}: M_p at t = 2 and 4 is nan
    args = ["dynamics", "--box", "1..3,1..3", "--samples", "2"]
    with np.errstate(all="ignore"):
        code = run_cli([*args, "--g", "1.7976931348623157e308", "--out", str(tmp_path)])
    assert code == 3
    assert "ArithmeticError: Mp at t = 2.0" in capsys.readouterr().err
    assert not (tmp_path / "dynamics.csv").exists()


def test_couple_s2w_rows_print_their_bound(tmp_path):
    args = ["couple", "--box", "0..4", "--gamma", "full", "--g", "0.01"]
    args += ["--energy=-1", "--epsilon", "1e-4", "--s", "0.5", "--samples", "4"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 0
    with open(tmp_path / "couple.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["check"].startswith("s2w-")]
    assert len(rows) == 4
    for row in rows:
        assert float(row["bound"]) == 1e-10
        assert row["pass"] == ("1" if float(row["value"]) <= float(row["bound"]) else "0")


def test_couple_numeric_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a ValueError after dispatch is a numeric failure, not a failure row
    import trimlab.cli as cli

    def fail(*args, **kwargs):
        raise ValueError("zero potential value; reciprocal undefined")

    monkeypatch.setattr(cli, "weak_disorder_bound_check", fail)
    args = ["couple", "--box", "0..4", "--gamma", "full", "--s", "0.5"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 3
    assert "reciprocal undefined" in capsys.readouterr().err
    assert not (tmp_path / "couple.csv").exists()


def test_verify_solves_g_and_g_off_x_once_per_trial(tmp_path, monkeypatch):
    # G_z[H] and G_z[A_X] feed the Schur, resolvent and kernel checks, and
    # the kernel identity solves G_z[gV|_G - D - K] (`TrimmedSplit.kernel`
    # reads its fold off an eigendecomposition): 3 solves per trial there;
    # the hedgehog checks add G_z[H(0)] once and 3 solves for each of their
    # two potentials
    from trimlab import coupling, fracmoment, spectral
    import trimlab.cli as cli

    calls = []
    real = spectral.green

    def counting(h, z):
        calls.append(z)
        return real(h, z)

    for module in (cli, coupling, fracmoment, spectral):
        monkeypatch.setattr(module, "green", counting)
    assert run_cli(["verify", "--box", "1..4,1..4", "--out", str(tmp_path)]) == 0
    assert len(calls) <= 5 * 10


def test_main_resolves_each_run_once(tmp_path, monkeypatch):
    # main validates the config and its runner takes the resolved ensemble;
    # no runner resolves the config a second time
    import trimlab.cli as cli

    assert cli.EXPERIMENTS == tuple(cli._RUNNERS)
    resolved, calls = cli._resolved, Counter()

    def counting(config, experiment):
        calls[experiment] += 1
        return resolved(config, experiment)

    monkeypatch.setattr(cli, "_resolved", counting)
    for experiment in cli.EXPERIMENTS:
        gamma = "full" if experiment == "couple" else "gamma1:2,2"
        args = [experiment, "--box", "1..3,1..1", "--gamma", gamma, "--g", "10"]
        args += ["--energy", "4", "--epsilon", "0.4", "--samples", "4"]
        assert run_cli(args + ["--out", str(tmp_path)]) == 0, experiment
    assert calls == dict.fromkeys(cli.EXPERIMENTS, 1)


def test_verify_builds_the_deterministic_half_once(monkeypatch):
    # the identities workload: one H(0) and one eigendecomposition of its
    # trimmed restriction serve all five trials, beside the five realizations
    import trimlab.cli as cli
    from trimlab.operators import assemble
    from trimlab.spectral import eigendecompose

    calls = Counter()
    for real in (assemble, eigendecompose):

        def counting(*args, _real=real, **kwargs):
            calls[_real.__name__] += 1
            return _real(*args, **kwargs)

        # every trimlab module that binds the function calls the counter
        name = real.__name__
        for module in [m for k, m in sys.modules.items() if k.startswith("trimlab")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    argv = ["verify", "--box", "1..10,1..10", "--threads", "1", "--out", "unused"]
    config = cli._load_config(cli._build_parser().parse_args(argv))
    cli._run_verify(config, *cli._resolved(config, "verify"))
    assert calls["assemble"] <= 6
    assert calls["eigendecompose"] == 1


@pytest.mark.parametrize("gamma", ["gamma1:2,2", "gamma2:3", "bernoulli:0.5:3"])
def test_anomalous_trimmed_spectrum_matches_eigvalsh_of_the_restriction(gamma):
    # the rows as `_run_anomalous` made them before it read the split's
    # eigenpairs: eigvalsh of trimmed_restriction(H(0))
    import trimlab.cli as cli
    from trimlab.operators import trimmed_restriction

    argv = ["anomalous", "--gamma", gamma, "--out", "unused"]
    config = cli._load_config(cli._build_parser().parse_args(argv))
    checked = dict(config)
    _, rows = cli._run_anomalous(checked, *cli._resolved(checked, "anomalous"))
    got = [row for row in rows if row[0] == "trimmed-spectrum"]
    ens, _ = cli._resolved(dict(config), "anomalous")
    spectrum = np.linalg.eigvalsh(trimmed_restriction(ens.split.h0).matrix)
    expected = [
        ["trimmed-spectrum", float(lam), int(np.sum(np.abs(spectrum - lam) < 1e-9))]
        for lam in sorted(set(np.round(spectrum, 10)))
    ]
    assert got and got == [row + [0, True] for row in expected]


@pytest.mark.parametrize(
    "error",
    [
        ZeroDivisionError("z equals the potential"),
        RuntimeError("3 resamples exceed the 1 budget"),
        OSError("disk full"),
        ValueError("singular matrix"),
    ],
)
def test_numeric_and_io_family_exits_3(tmp_path, monkeypatch, capsys, error):
    import trimlab.cli as cli

    def failing(config, ens, rho):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "verify", failing)
    assert run_cli(["verify", "--out", str(tmp_path)]) == 3
    assert f"{type(error).__name__}: {error}" in capsys.readouterr().err


def test_out_of_memory_window_exits_3(tmp_path, monkeypatch, capsys):
    # a lattice-info window whose arrays do not fit exited 1 with a traceback
    import trimlab.cli as cli

    def out_of_memory(mask, box):
        raise MemoryError("Unable to allocate 3.16 GiB for an array")

    monkeypatch.setattr(cli, "is_doubly_insulated", out_of_memory)
    args = ["lattice-info", "--box", "0..4,0..4", "--gamma", "bernoulli:0.4:1"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 3
    assert "trimlab: MemoryError: Unable to allocate" in capsys.readouterr().err
    assert not (tmp_path / "lattice-info.csv").exists()


def test_unexpected_exception_keeps_traceback_and_exits_1(tmp_path):
    # only the numeric and I/O family exits 3; any other exception is a bug
    import trimlab.cli as cli

    script = (
        "import sys, trimlab.cli as cli\n"
        "def broken(config, ens, rho):\n"
        "    raise TypeError('a bug, not a numeric failure')\n"
        "cli._RUNNERS['verify'] = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify", "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "TypeError: a bug" in proc.stderr
    assert not (tmp_path / "verify.csv").exists()
