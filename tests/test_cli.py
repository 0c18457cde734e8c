"""Command-line entry points, exercised in process through main(argv),
and what a fresh interpreter loads to import them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import routerlab
from routerlab import __version__, cli
from routerlab.cli import main
from routerlab.io import SyntheticParams, generate_synthetic, load_dataset, load_training_questions, write_dataset
from routerlab.records import CONFIDENCE_LEVELS, QuestionRecord, ValidationError
from routerlab.trainset import ResponseSample

GOLDEN = Path(__file__).resolve().parent / "data" / "build_golden"
RULES = Path(__file__).resolve().parent / "data" / "validate_golden"
SYNTH_GOLDEN = Path(__file__).resolve().parent / "data" / "synth_golden"


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


DEEP = "[" * 100_000  # nested deeper than the JSON decoder can follow


def run_fresh(argv):
    """``routerlab argv`` in a fresh interpreter: its exit code, stdout and stderr."""
    src = str(Path(routerlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "routerlab.cli", *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    return done.returncode, done.stdout, done.stderr


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

    def test_one_bad_line_per_rule(self, monkeypatch, capsys):
        # rules.jsonl breaks one input rule per line; stderr.txt is what
        # validate printed for it when each line had two readers.
        monkeypatch.chdir(RULES)
        code, out, err = run(["validate", "rules.jsonl"], capsys)
        assert code == 1
        assert out == "rules.jsonl: 2 question(s) ok, 69 problem(s)\n"
        assert err == (RULES / "stderr.txt").read_text(encoding="utf-8")

    def test_missing_file(self, tmp_path, capsys):
        code, out, err = run(["validate", str(tmp_path / "nope.jsonl")], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_form_feed_line_is_not_blank(self, tmp_path, capsys):
        # Only JSON whitespace makes a line blank; form feed and vertical tab do not.
        path = tmp_path / "ff.jsonl"
        synth = tmp_path / "two.jsonl"
        assert main(["synth", str(synth), "--n", "2", "--seed", "1"]) == 0
        capsys.readouterr()
        first, second = synth.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + b" \t\r\n" + b"\x0c\x0b\n" + second)
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 1
        assert out == f"{path}: 2 question(s) ok, 1 problem(s)\n"
        assert err.startswith(f"{path}:3: invalid JSON: Expecting value")
        assert err.count("\n") == 1


    def test_deep_nesting_reported_at_its_line(self, dataset, capsys):
        lines = dataset.read_text(encoding="utf-8").splitlines()
        lines.insert(3, DEEP)
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(["validate", str(dataset)], capsys)
        assert code == 1
        assert out == f"{dataset}: 80 question(s) ok, 1 problem(s)\n"
        assert err.startswith(f"{dataset}:4: invalid JSON: ")
        assert err.count("\n") == 1


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

    def test_end_off_the_step_grid_is_left_out(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        argv = ["sweep", str(dataset), "--mode", "pre", "--out-dir", str(out_dir), "--taus", "0:1:0.3"]
        assert run(argv, capsys)[0] == 0
        rows = (out_dir / "curve.csv").read_text().strip().splitlines()
        taus = [r.split(",")[0] for r in rows[1:]]
        assert taus == ["slm_only", "0", "0.3", "0.6", "0.9", "llm_only"]

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

    # sc samples carry no confidence level, so no vote is ever weighed by
    # alpha; a bad alpha must still be rejected.
    @pytest.mark.parametrize(
        "scheme, alpha",
        [
            pytest.param("rcv", "nan", id="nan"),
            pytest.param("rcv", "inf", id="inf"),
            pytest.param("sc", "nan", id="sc-nan"),
            pytest.param("sc", "inf", id="sc-inf"),
            pytest.param("sc", "-5", id="sc-negative"),
        ],
    )
    def test_non_finite_alpha_rejected(self, dataset, tmp_path, capsys, scheme, alpha):
        if scheme == "sc":
            dataset = tmp_path / "sc.jsonl"
            assert main(["synth", str(dataset), "--n", "20", "--seed", "11", "--scheme", "sc"]) == 0
        code, out, err = run(
            [
                "sweep",
                str(dataset),
                "--mode",
                "cascade",
                "--scheme",
                scheme,
                "--alpha",
                alpha,
                "--out-dir",
                str(tmp_path / "x"),
            ],
            capsys,
        )
        assert code == 1
        assert "alpha" in err
        assert not (tmp_path / "x").exists()

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

    @pytest.mark.parametrize(
        "taus, message",
        [
            ("a:b:c", "argument --taus: expected three numbers, got 'a:b:c'"),
            ("0.5:0.2:0.1", "argument --taus: thresholds must satisfy 0 <= start <= end <= 1"),
            (
                "0:1:5e-324",
                "argument --taus: the grid would hold inf thresholds; at most 1000001 are allowed",
            ),
            (
                "0:1:1e-308",
                "argument --taus: the grid would hold 1e+308 thresholds; at most 1000001 are allowed",
            ),
        ],
        ids=["not_numbers", "backwards", "step_overflows", "step_too_small"],
    )
    def test_bad_taus_exit_two(self, dataset, tmp_path, capsys, taus, message):
        out_dir = tmp_path / "x"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(dataset), "--mode", "pre", "--out-dir", str(out_dir), "--taus", taus])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("taus", ["0:1:nan", "0:1:0", "0:1:inf"])
    def test_non_positive_tau_step_exits_two(self, dataset, tmp_path, capsys, taus):
        out_dir = tmp_path / "x"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(dataset), "--mode", "pre", "--out-dir", str(out_dir), "--taus", taus])
        assert excinfo.value.code == 2
        assert "step must be positive" in capsys.readouterr().err
        assert not out_dir.exists()

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


    def test_sample_order_does_not_change_artifacts(self, dataset, tmp_path, capsys):
        """A file whose ladders are stored in level order, and a copy with
        each question's samples reversed, which ``_ladder`` reads through
        its per-level dict, sweep to the same bytes in both modes."""
        reversed_path = tmp_path / "reversed.jsonl"
        with open(dataset, encoding="utf-8") as src, open(reversed_path, "w", encoding="utf-8") as out:
            for line in src:
                row = json.loads(line)
                row["slm_samples"].reverse()
                out.write(json.dumps(row) + "\n")
        in_order = [q.levels == CONFIDENCE_LEVELS for q in load_dataset(str(dataset))[0]]
        assert all(in_order)
        assert not any(q.levels == CONFIDENCE_LEVELS for q in load_dataset(str(reversed_path))[0])
        for mode in (["pre", "--score-source", "refusal"], ["cascade"]):
            outputs = []
            for name, path in (("in_order", dataset), ("reversed", reversed_path)):
                out_dir = tmp_path / f"{mode[0]}_{name}"
                code, out, err = run(
                    ["sweep", str(path), "--mode", *mode, "--golden", "--out-dir", str(out_dir)], capsys
                )
                assert (code, err) == (0, "")
                files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                outputs.append((out.replace(str(out_dir), "OUT"), files))
            assert sorted(outputs[0][1]) == ["curve.csv", "curve_perfect.csv", "golden.csv", "metrics.json"]
            assert outputs[0] == outputs[1]

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
    @pytest.mark.parametrize("failure", ["write_error", "target_is_a_directory", "builder_error"])
    def test_failed_write_leaves_no_artifact(self, corpus, tmp_path, capsys, monkeypatch, failure):
        out_dir = tmp_path / "train"
        streaming = []
        if failure == "write_error":
            monkeypatch.setattr(cli, "_write_refusal_rows", fail_write)
            left = []
        elif failure == "builder_error":
            # Refusal rows stream to their temporary file as each
            # question's targets are drawn, so both temporaries exist
            # when the third question fails.
            draw = cli.refusal_targets
            built = []

            def fail_third(question, seed):
                if len(built) == 2:
                    streaming.extend(sorted(p.name for p in out_dir.iterdir()))
                    raise ValidationError(f"question {question.id!r}: cannot build")
                built.append(question.id)
                return draw(question, seed)

            monkeypatch.setattr(cli, "refusal_targets", fail_third)
            left = []
        else:
            (out_dir / "refusal.jsonl").mkdir(parents=True)
            left = ["refusal.jsonl"]
        code, out, err = run(["build", str(corpus), "--out-dir", str(out_dir)], capsys)
        assert code == 1
        assert "error: " in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out_dir.iterdir()) == left
        if failure == "builder_error":
            assert "error: question 't2': cannot build" in err
            assert [name.split(".")[1] for name in streaming] == ["pairs", "refusal"]
            assert all(name.endswith(".tmp") for name in streaming)

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

    def test_makes_no_response_sample(self, tmp_path, capsys, monkeypatch):
        # build reads each question's completion columns; only the
        # record-level builders make ResponseSamples.
        made = []
        init = ResponseSample.__init__

        def counted(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ResponseSample, "__init__", counted)
        code, out, err = run(
            ["build", str(GOLDEN / "corpus.jsonl"), "--out-dir", str(tmp_path), "--seed", "3"],
            capsys,
        )
        assert (code, made) == (0, [])
        for name in ("pairs.jsonl", "refusal.jsonl"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
        # The counter does see the records that .samples builds on access.
        question = load_training_questions(str(GOLDEN / "corpus.jsonl"))[0]
        assert made == []
        samples = question.samples
        assert len(made) == len(samples) == len(question.texts)

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

    def test_rows_do_not_depend_on_question_order(self, corpus, tmp_path, capsys):
        # Targets are keyed by (seed, id): reversing the corpus reverses
        # the questions' row blocks and changes no row.
        reversed_corpus = tmp_path / "reversed.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        reversed_corpus.write_text("".join(reversed(lines)), encoding="utf-8")
        by_id = []
        for path, out_dir in ((corpus, tmp_path / "a"), (reversed_corpus, tmp_path / "b")):
            code, _, _ = run(["build", str(path), "--out-dir", str(out_dir), "--seed", "3"], capsys)
            assert code == 0
            rows = {}
            for name in ("pairs.jsonl", "refusal.jsonl"):
                for line in (out_dir / name).read_text(encoding="utf-8").splitlines():
                    rows.setdefault((name, json.loads(line)["id"]), []).append(line)
            by_id.append(rows)
        assert by_id[0] == by_id[1]
        assert sum(len(rows) for (name, _), rows in by_id[0].items() if name == "refusal.jsonl") == 60

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

    @pytest.mark.parametrize(
        "mode", [["--mode", "pre", "--score-source", "refusal"], ["--mode", "cascade"]], ids=["pre", "cascade"]
    )
    def test_no_llm_file_validates_but_no_sweep_takes_it(self, tmp_path, capsys, mode):
        path = tmp_path / "q.jsonl"
        assert run(["synth", str(path), "--n", "10", "--seed", "1", "--no-llm"], capsys)[0] == 0
        assert run(["validate", str(path)], capsys)[0] == 0
        out_dir = tmp_path / "run"
        code, out, err = run(["sweep", str(path), *mode, "--assume-perfect", "--out-dir", str(out_dir)], capsys)
        assert code == 1
        assert err == (
            "error: dataset has no LLM records, so the average LLM answer length "
            "and every LLM cost are undefined\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "name, flags",
        [("rcv", ["--pre-noise", "0.2"]), ("sc", ["--no-llm"]), ("fcv", ["--easy-fraction", "0.5"])],
    )
    def test_written_bytes_match_golden(self, tmp_path, capsys, name, flags):
        path = tmp_path / f"{name}.jsonl"
        argv = ["synth", str(path), "--n", "5", "--seed", "3", "--scheme", name, *flags]
        assert run(argv, capsys)[0] == 0
        assert path.read_bytes() == (SYNTH_GOLDEN / f"{name}.jsonl").read_bytes()

    @pytest.mark.parametrize("no_llm", [True, False], ids=["no_llm", "llm"])
    def test_every_flag_reaches_its_param(self, tmp_path, capsys, no_llm):
        flags = [
            "--scheme", "fcv", "--n-samples", "4", "--difficulty-min", "0.1", "--difficulty-max", "0.6",
            "--easy-fraction", "0.3", "--pre-noise", "0.25", "--llm-correct-prob", "0.4",
        ]
        params = dict(
            scheme="fcv", n_samples=4, difficulty_min=0.1, difficulty_max=0.6, easy_fraction=0.3,
            pre_score_noise=0.25, llm_correct_prob=0.4, include_llm=not no_llm,
        )
        path = tmp_path / "cli.jsonl"
        argv = ["synth", str(path), "--n", "20", "--seed", "7", *flags, *["--no-llm"] * no_llm]
        assert run(argv, capsys)[0] == 0

        def written(**fields):
            lib = tmp_path / "lib.jsonl"
            write_dataset(generate_synthetic(20, 7, SyntheticParams(**fields)), str(lib))
            return lib.read_bytes()

        got = path.read_bytes()
        assert got == written(**params)
        # Each knob shows in the bytes, so a flag that failed to reach its
        # field could not pass unseen; the LLM's odds show only with an LLM.
        others = dict(
            scheme="sc", n_samples=10, difficulty_min=0.0, difficulty_max=1.0, easy_fraction=0.0,
            pre_score_noise=0.0, llm_correct_prob=0.9, include_llm=no_llm,
        )
        for name, other in others.items():
            if not (no_llm and name == "llm_correct_prob"):
                assert written(**{**params, name: other}) != got, name

    def test_invalid_flag_value(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", str(tmp_path / "x.jsonl"), "--n", "0"])
        capsys.readouterr()
        assert excinfo.value.code == 2

    def test_non_integer_count_exits_two(self, tmp_path, capsys):
        path = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", str(path), "--n", "abc"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --n: expected an integer, got 'abc'\n")
        assert not path.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_write_leaves_no_artifact(self, tmp_path, capsys, monkeypatch, existing):
        path = tmp_path / "part.jsonl"
        before = b'{"id": "kept"}\n'
        if existing:
            path.write_bytes(before)
        to_dict = QuestionRecord.to_dict
        written = []

        def fail_third(question):
            if len(written) == 2:
                raise OSError("disk full")
            written.append(question.id)
            return to_dict(question)

        monkeypatch.setattr(QuestionRecord, "to_dict", fail_third)
        code, out, err = run(["synth", str(path), "--n", "5"], capsys)
        assert (code, err) == (1, "error: disk full\n")
        assert [p.name for p in tmp_path.iterdir()] == (["part.jsonl"] if existing else [])
        if existing:
            assert path.read_bytes() == before

    def test_missing_parent_directory_is_created(self, tmp_path, capsys):
        path = tmp_path / "new" / "dir" / "q.jsonl"
        code, out, err = run(["synth", str(path), "--n", "3"], capsys)
        assert code == 0
        assert len(load_dataset(str(path))[0]) == 3
        assert [p.name for p in path.parent.iterdir()] == ["q.jsonl"]

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

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_write_leaves_no_artifact(self, dataset, tmp_path, capsys, monkeypatch, existing):
        out_dir = tmp_path / "sweep"
        run(["sweep", str(dataset), "--mode", "pre", "--out-dir", str(out_dir)], capsys)
        reports = tmp_path / "reports"
        reports.mkdir()
        path = reports / "m.json"
        before = b"{}\n"
        if existing:
            path.write_bytes(before)
        monkeypatch.setattr(cli, "write_metrics", fail_write)
        code, out, err = run(["metrics", str(out_dir / "curve.csv"), "--out", str(path)], capsys)
        assert code == 1
        assert err.startswith("error: disk full while writing ")
        assert [p.name for p in reports.iterdir()] == (["m.json"] if existing else [])
        if existing:
            assert path.read_bytes() == before

    def test_missing_parent_directory_is_created(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        run(["sweep", str(dataset), "--mode", "pre", "--out-dir", str(out_dir)], capsys)
        path = tmp_path / "new" / "dir" / "m.json"
        code, out, err = run(["metrics", str(out_dir / "curve.csv"), "--out", str(path)], capsys)
        assert (code, out) == (0, f"wrote {path}\n")
        printed = run(["metrics", str(out_dir / "curve.csv")], capsys)[1]
        assert json.loads(path.read_text()) == json.loads(printed)

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


class TestMetricsNamesTheCurve:
    """A curve whose reference points cannot scale ToA is reported with
    its file's path, once, whether it is CURVE or --golden."""

    ROWS = {
        "no_llm_only": ["slm_only,0.1,0.3,0", "0.5,0.6,0.7,5"],
        "equal_costs": ["slm_only,0.5,0.3,0", "0.5,0.5,0.7,5", "llm_only,0.5,0.9,10"],
    }
    ERRORS = {
        "no_llm_only": "a curve needs exactly one slm_only and one llm_only point; found 1 and 0",
        "equal_costs": (
            "the all-LLM reference must cost more than the all-SLM reference "
            "(0.5 vs 0.5); the cost axis is degenerate"
        ),
    }

    @pytest.mark.parametrize("role", ["curve", "golden"])
    @pytest.mark.parametrize("shape", ["no_llm_only", "equal_costs"])
    def test_error_names_the_file(self, tmp_path, capsys, role, shape):
        good = tmp_path / "good.csv"
        good.write_text("tau,cost,performance,n_routed\nslm_only,0.1,0.3,0\nllm_only,1.0,0.9,10\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(["tau,cost,performance,n_routed", *self.ROWS[shape]]) + "\n")
        argv = ["metrics", str(bad)] if role == "curve" else ["metrics", str(good), "--golden", str(bad)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: {self.ERRORS[shape]}\n"


class TestDeepNesting:
    """A line nested deeper than the JSON decoder can follow fails the
    command with one error line, as any invalid JSON does; the rest of
    the message is CPython's."""

    @pytest.mark.parametrize("where", ["sweep", "build", "pricing"])
    def test_reported_without_a_traceback(self, dataset, corpus, tmp_path, where):
        out_dir = tmp_path / "out"
        if where == "pricing":
            pricing = tmp_path / "deep.json"
            pricing.write_text(DEEP, encoding="utf-8")
            argv = ["sweep", str(dataset), "--mode", "pre", "--pricing", str(pricing)]
            expected = f"error: {pricing}: invalid JSON: "
        else:
            path = dataset if where == "sweep" else corpus
            lines = path.read_text(encoding="utf-8").splitlines()
            lines.insert(1, DEEP)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv = [where, str(path)] + (["--mode", "cascade"] if where == "sweep" else [])
            expected = f"error: {path}:2: invalid JSON: "
        code, out, err = run_fresh(argv + ["--out-dir", str(out_dir)])
        assert code == 1
        assert out == ""
        assert err.startswith(expected)
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out_dir.exists()


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


# Run in a fresh interpreter: the modules that importing the CLI adds to
# those ``site`` already loaded, then the same after one first use.
STARTUP = """
import sys
before = set(sys.modules)
import routerlab.cli
at_import = set(sys.modules) - before
import json
from routerlab import ResponseSample, TrainingQuestion, generate_synthetic, refusal_targets
question = TrainingQuestion("q1", "Q?", [ResponseSample(f"t{{i}}", i < 6, 5 + i) for i in range(10)])
result = {use}
print(json.dumps({{
    "preloaded": sorted(before), "at_import": sorted(at_import),
    "after_use": sorted(set(sys.modules) - before), "result": result,
}}))
"""

FIRST_USE = {
    "generate_synthetic": "[q.to_dict() for q in generate_synthetic(3, 5)]",
    "refusal_targets": "list(refusal_targets(question, 5))",
}


class TestStartup:
    """Importing the CLI loads none of ``dataclasses``, ``inspect`` and
    ``csv``, and ``hashlib`` waits for the first seeded draw."""

    @pytest.mark.parametrize("use", sorted(FIRST_USE))
    def test_import_defers_hashlib_to_its_first_use(self, use):
        src = str(Path(routerlab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", STARTUP.format(use=FIRST_USE[use])],
            env=env, capture_output=True, text=True, check=True,
        )
        seen = json.loads(done.stdout)
        assert "routerlab.cli" in seen["at_import"]
        assert {"dataclasses", "inspect", "csv", "hashlib"}.isdisjoint(seen["at_import"])
        if "hashlib" not in seen["preloaded"]:
            assert "hashlib" in seen["after_use"]
        question = routerlab.TrainingQuestion(
            "q1", "Q?", [routerlab.ResponseSample(f"t{i}", i < 6, 5 + i) for i in range(10)]
        )
        expected = {
            "generate_synthetic": [q.to_dict() for q in routerlab.generate_synthetic(3, 5)],
            "refusal_targets": list(routerlab.refusal_targets(question, 5)),
        }[use]
        assert seen["result"] == expected
