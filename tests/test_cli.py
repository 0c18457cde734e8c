"""Command-line entry points, exercised in process through main(argv)."""

import json
from pathlib import Path

import pytest

from routerlab import __version__, cli
from routerlab.cli import main
from routerlab.io import load_dataset

GOLDEN = Path(__file__).resolve().parent / "data" / "build_golden"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path, capsys):
    path = tmp_path / "questions.jsonl"
    code = main(["synth", str(path), "--n", "80", "--seed", "11"])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = []
    for i in range(6):
        samples = [
            {"text": f"good-{i}-{j}", "correct": True, "tokens": 12 + j}
            for j in range(i % 3 + 2)
        ] + [
            {"text": f"bad-{i}-{j}", "correct": False, "tokens": 80 + j}
            for j in range(8 - i % 3)
        ]
        rows.append({"id": f"t{i}", "question": f"Question {i}?", "samples": samples})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def fail_write(content, path):
    """A writer that fails halfway, leaving a partial file behind."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("partial")
    raise OSError(f"disk full while writing {path}")


class TestValidate:
    def test_clean_dataset(self, dataset, capsys):
        code, out, err = run(["validate", str(dataset)], capsys)
        assert code == 0
        assert "80 question" in out
        assert err == ""

    def test_broken_dataset(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(
            b'{"id": "q"}\n'
            b"not json\n"
            b'{"id": "q3", "input_tokens": 9, "slm_samples": [5]}\n'
            b'{"id": "q\xe9", "input_tokens": 9, "slm_samples": []}\n'
        )
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 1
        assert all(f"{path}:{line}:" in err for line in (1, 2, 3, 4))
        assert "Traceback" not in err

    def test_missing_file(self, tmp_path, capsys):
        code, out, err = run(["validate", str(tmp_path / "nope.jsonl")], capsys)
        assert code == 1
        assert err.startswith("error:")


class TestSweep:
    def test_pre_sweep_outputs(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "pre"
        code, out, err = run(
            ["sweep", str(dataset), "--mode", "pre", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert (out_dir / "curve.csv").is_file()
        assert (out_dir / "metrics.json").is_file()
        report = json.loads((out_dir / "metrics.json").read_text())
        assert report["mode"] == "actual"
        assert 0.0 <= report["toa"] <= 1.0
        assert report["agl"] == 0.0 and report["arol"] == 0.0
        assert "toa" in out

    def test_cascade_sweep_with_golden(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "cascade"
        code, out, err = run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "cascade",
                "--scheme",
                "rcv",
                "--out-dir",
                str(out_dir),
                "--golden",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((out_dir / "metrics.json").read_text())
        assert (out_dir / "golden.csv").is_file()
        assert (out_dir / "curve_perfect.csv").is_file()
        assert report["togr"] is not None
        assert report["toa100"] is not None
        assert report["agl"] > 0.0
        assert report["arol"] > 0.0

    def test_custom_tau_grid(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        code, out, err = run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "pre",
                "--out-dir",
                str(out_dir),
                "--taus",
                "0:1:0.25",
            ],
            capsys,
        )
        assert code == 0
        rows = (out_dir / "curve.csv").read_text().strip().splitlines()
        taus = [r.split(",")[0] for r in rows[1:]]
        assert taus == ["slm_only", "0", "0.25", "0.5", "0.75", "1", "llm_only"]

    def test_latency_tau_must_sit_on_grid(self, dataset, tmp_path, capsys):
        code, out, err = run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "cascade",
                "--out-dir",
                str(tmp_path / 'x'),
                "--taus",
                "0:1:0.25",
                "--tau",
                "0.6",
                "--golden",
            ],
            capsys,
        )
        assert code == 1
        assert "0.6" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_rejected(self, dataset, tmp_path, capsys, alpha):
        code, out, err = run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "cascade",
                "--alpha",
                alpha,
                "--out-dir",
                str(tmp_path / "x"),
            ],
            capsys,
        )
        assert code == 1
        assert "alpha" in err

    @pytest.mark.parametrize(
        "field, value", [("slm_in", float("nan")), ("llm_in", float("inf"))]
    )
    def test_non_finite_price_rejected(self, dataset, tmp_path, capsys, field, value):
        pricing = tmp_path / "pricing.json"
        prices = {"slm_in": 0.02, "slm_out": 0.08, "llm_in": 0.275, "llm_out": 1.1}
        prices[field] = value
        # json writes these as the bare NaN / Infinity literals Python accepts back
        pricing.write_text(json.dumps(prices), encoding="utf-8")
        out_dir = tmp_path / "x"
        code, out, err = run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "cascade",
                "--pricing",
                str(pricing),
                "--out-dir",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 1
        assert str(pricing) in err
        assert f"{field} must be a finite number" in err
        assert not out_dir.exists()

    def test_malformed_taus_exit_two(self, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    str(dataset),
                    "--mode",
                    "pre",
                    "--out-dir",
                    str(tmp_path / "x"),
                    "--taus",
                    "backwards",
                ]
            )
        capsys.readouterr()
        assert excinfo.value.code == 2

    def test_assume_perfect_mode_recorded(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "perfect"
        code, out, err = run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "pre",
                "--out-dir",
                str(out_dir),
                "--assume-perfect",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((out_dir / "metrics.json").read_text())
        assert report["mode"] == "perfect"

    def test_refusal_score_source(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "refusal"
        code, out, err = run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "pre",
                "--score-source",
                "refusal",
                "--out-dir",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 0


    @pytest.mark.parametrize("where", ["dataset", "pricing"])
    def test_huge_integer_rejected(self, dataset, tmp_path, capsys, where):
        huge = 10**400
        prices = {"slm_in": 0.02, "slm_out": 0.08, "llm_in": 0.275, "llm_out": 1.1}
        if where == "dataset":
            lines = dataset.read_text().splitlines()
            first = json.loads(lines[0])
            first["input_tokens"] = huge
            lines[0] = json.dumps(first)
            dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
            expected = f"{dataset}:1: input_tokens is too large for a float"
        else:
            prices["slm_in"] = huge
            expected = "slm_in is too large for a float"
        pricing = tmp_path / "pricing.json"
        pricing.write_text(json.dumps(prices), encoding="utf-8")
        out_dir = tmp_path / "x"
        code, out, err = run(
            ["sweep", str(dataset), "--mode", "pre", "--pricing", str(pricing),
             "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert expected in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_assume_perfect_needs_no_llm_record(self, dataset, tmp_path, capsys):
        lines = dataset.read_text().splitlines()
        first = json.loads(lines[0])
        first["llm"] = None
        lines[0] = json.dumps(first)
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["sweep", str(dataset), "--mode", "cascade", "--golden"]
        code, out, err = run(argv + ["--assume-perfect", "--out-dir", str(tmp_path / "p")], capsys)
        assert code == 0
        assert (tmp_path / "p" / "golden.csv").is_file()
        code, out, err = run(argv + ["--out-dir", str(tmp_path / "a")], capsys)
        assert code == 1
        assert f"question {first['id']!r} has no llm record" in err

    @pytest.mark.parametrize("failure", ["write_error", "target_is_a_directory"])
    def test_failed_write_leaves_no_artifact(self, dataset, tmp_path, capsys, monkeypatch, failure):
        out_dir = tmp_path / "run"
        if failure == "write_error":
            monkeypatch.setattr(cli, "write_metrics", fail_write)
            left = []
        else:
            (out_dir / "metrics.json").mkdir(parents=True)
            left = ["metrics.json"]
        code, out, err = run(
            ["sweep", str(dataset), "--mode", "cascade", "--golden", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert "error: " in err
        assert sorted(p.name for p in out_dir.iterdir()) == left


class TestBuild:
    @pytest.mark.parametrize("failure", ["write_error", "target_is_a_directory"])
    def test_failed_write_leaves_no_artifact(self, corpus, tmp_path, capsys, monkeypatch, failure):
        out_dir = tmp_path / "train"
        if failure == "write_error":
            monkeypatch.setattr(cli, "write_refusal_examples", fail_write)
            left = []
        else:
            (out_dir / "refusal.jsonl").mkdir(parents=True)
            left = ["refusal.jsonl"]
        code, out, err = run(["build", str(corpus), "--out-dir", str(out_dir)], capsys)
        assert code == 1
        assert "error: " in err
        assert sorted(p.name for p in out_dir.iterdir()) == left

    def test_outputs(self, corpus, tmp_path, capsys):
        out_dir = tmp_path / "train"
        code, out, err = run(
            ["build", str(corpus), "--out-dir", str(out_dir), "--seed", "3"],
            capsys,
        )
        assert code == 0
        pair_lines = (out_dir / "pairs.jsonl").read_text().strip().splitlines()
        refusal_lines = (out_dir / "refusal.jsonl").read_text().strip().splitlines()
        assert len(refusal_lines) == 60  # ten per question
        assert all(json.loads(l)["rejected_tokens"] > 0 for l in pair_lines)

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        # A corpus whose texts hold quotes, a backslash, a tab, a newline,
        # non-ASCII letters, emoji, U+2028, U+2029 and DEL; the expected
        # files are the bytes the JSON encoder wrote for it.
        code, out, err = run(
            ["build", str(GOLDEN / "corpus.jsonl"), "--out-dir", str(tmp_path), "--seed", "3"],
            capsys,
        )
        assert code == 0
        for name in ("pairs.jsonl", "refusal.jsonl"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_lone_surrogate_reported_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        samples = [{"text": "a", "correct": True, "tokens": 5}] * 10
        path.write_text(
            json.dumps({"id": "t0", "question": "bad \ud800 text", "samples": samples}) + "\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "x"
        code, out, err = run(["build", str(path), "--out-dir", str(out_dir)], capsys)
        assert code == 1
        assert (
            f"{path}:1: question holds a lone surrogate U+D800 at index 4, "
            "which UTF-8 cannot encode"
        ) in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_deterministic_given_seed(self, corpus, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            code, out, err = run(
                ["build", str(corpus), "--out-dir", str(d), "--seed", "3"], capsys
            )
            assert code == 0
        assert (a_dir / "refusal.jsonl").read_bytes() == (
            b_dir / "refusal.jsonl"
        ).read_bytes()

    def test_seed_from_environment(self, corpus, tmp_path, capsys, monkeypatch):
        flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
        code, _, _ = run(
            ["build", str(corpus), "--out-dir", str(flag_dir), "--seed", "7"], capsys
        )
        assert code == 0
        monkeypatch.setenv("RL_SEED", "7")
        code, _, _ = run(["build", str(corpus), "--out-dir", str(env_dir)], capsys)
        assert code == 0
        assert (flag_dir / "refusal.jsonl").read_bytes() == (
            env_dir / "refusal.jsonl"
        ).read_bytes()

    def test_non_integer_env_seed(self, corpus, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RL_SEED", "lucky")
        code, out, err = run(
            ["build", str(corpus), "--out-dir", str(tmp_path / "x")], capsys
        )
        assert code == 1
        assert "RL_SEED" in err

    def test_wrong_sample_count_rejected(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        row = {
            "id": "t0",
            "question": "Q?",
            "samples": [{"text": "a", "correct": True, "tokens": 5}] * 9,
        }
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code, out, err = run(
            ["build", str(path), "--out-dir", str(tmp_path / "x")], capsys
        )
        assert code == 1
        assert "t0" in err

    def test_min_ratio_floor_enforced(self, corpus, tmp_path, capsys):
        code, out, err = run(
            [
                "build",
                str(corpus),
                "--out-dir",
                str(tmp_path / "x"),
                "--min-ratio",
                "1.2",
            ],
            capsys,
        )
        assert code == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_min_ratio_rejected(self, corpus, tmp_path, capsys, ratio):
        out_dir = tmp_path / "x"
        code, out, err = run(
            ["build", str(corpus), "--out-dir", str(out_dir), "--min-ratio", ratio],
            capsys,
        )
        assert code == 1
        assert "min_ratio" in err
        assert not out_dir.exists()


class TestSynth:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code, out, err = run(
                ["synth", str(path), "--n", "30", "--seed", "5"], capsys
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scheme_and_no_llm(self, tmp_path, capsys):
        path = tmp_path / "sc.jsonl"
        code, out, err = run(
            [
                "synth",
                str(path),
                "--n",
                "12",
                "--seed",
                "1",
                "--scheme",
                "sc",
                "--no-llm",
            ],
            capsys,
        )
        assert code == 0
        questions, profile = load_dataset(str(path))
        assert len(questions) == 12
        assert profile.n_with_llm == 0
        assert all(s.confidence_level is None for q in questions for s in q.slm_samples)

    def test_invalid_flag_value(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", str(tmp_path / "x.jsonl"), "--n", "0"])
        capsys.readouterr()
        assert excinfo.value.code == 2

    def test_non_finite_pre_noise_rejected(self, tmp_path, capsys):
        path = tmp_path / "x.jsonl"
        code, out, err = run(["synth", str(path), "--n", "5", "--pre-noise", "nan"], capsys)
        assert code == 1
        assert "pre_score_noise" in err
        assert not path.exists()


class TestMetrics:
    def test_recompute_from_curve(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "pre",
                "--out-dir",
                str(out_dir),
                "--golden",
            ],
            capsys,
        )
        sweep_report = json.loads((out_dir / "metrics.json").read_text())

        report_path = tmp_path / "recomputed.json"
        code, out, err = run(
            [
                "metrics",
                str(out_dir / "curve.csv"),
                "--golden",
                str(out_dir / "golden.csv"),
                "--out",
                str(report_path),
            ],
            capsys,
        )
        assert code == 0
        recomputed = json.loads(report_path.read_text())
        # the CSV stores six decimals, so agreement is at file precision
        assert recomputed["toa"] == pytest.approx(sweep_report["toa"], abs=1e-4)
        assert recomputed["agl"] == 0.0 and recomputed["arol"] == 0.0

    def test_prints_to_stdout_by_default(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        run(
            ["sweep", str(dataset), "--mode", "pre", "--out-dir", str(out_dir)],
            capsys,
        )
        code, out, err = run(["metrics", str(out_dir / "curve.csv")], capsys)
        assert code == 0
        assert json.loads(out)["togr"] is None

    def test_perfect_mode_fills_toa100(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "pre",
                "--out-dir",
                str(out_dir),
                "--assume-perfect",
            ],
            capsys,
        )
        code, out, err = run(
            ["metrics", str(out_dir / "curve.csv"), "--mode", "perfect"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["toa100"] == data["toa"]


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        capsys.readouterr()
        assert excinfo.value.code == 2
