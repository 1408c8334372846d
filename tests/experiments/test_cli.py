"""Command-line interface for the experiment harness."""

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main, run_experiment


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.experiment == "fig5"
        assert args.scale == "smoke"
        assert args.dataset == ""
        assert args.seed == 0

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--scale", "galactic"])

    def test_all_experiments_documented(self):
        for name in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                     "tab7_9", "tab10", "tab11", "all"):
            assert name in EXPERIMENTS


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "tab10" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["figure99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_runs_tiny_experiment(self, capsys, monkeypatch):
        # Shrink the smoke preset so the CLI test stays fast.
        from repro.experiments import SMOKE, scale as scale_module
        tiny = SMOKE.with_overrides(
            train_size=120, test_size=60, pretrain_rounds=1, local_epochs=1,
            unlearn_rounds=1, shard_counts=(1, 2),
        )
        monkeypatch.setitem(scale_module.SCALES, "smoke", tiny)
        assert main(["fig6", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Fig 6" in out
        assert "done in" in out

    def test_dataset_restriction(self, capsys, monkeypatch):
        from repro.experiments import SMOKE, scale as scale_module
        tiny = SMOKE.with_overrides(
            train_size=120, test_size=60, pretrain_rounds=1, local_epochs=1,
            unlearn_rounds=1,
        )
        monkeypatch.setitem(scale_module.SCALES, "smoke", tiny)
        assert main(["fig5", "--dataset", "mnist"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out


class TestRunExperimentValidation:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            run_experiment("nope", "smoke", "", 0)


class TestSynchronousOnly:
    """Rounds are synchronous: no async flag parses and no
    ``deletion_sla`` kind runs."""

    @pytest.mark.parametrize(
        "flag",
        [
            ["--async-mode"],
            ["--buffer-size", "4"],
            ["--max-staleness", "4"],
            ["--straggler-timeout", "2.5"],
        ],
    )
    def test_async_flags_do_not_parse(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", *flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_deletion_sla_is_an_unknown_experiment(self, capsys):
        assert "deletion_sla" not in EXPERIMENTS
        assert main(["deletion_sla"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_list_names_every_experiment_and_nothing_else(self, capsys):
        assert main(["list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == list(EXPERIMENTS)


class TestPaperArtifactsOnly:
    """The CLI runs the paper's artifacts and nothing else: no matrix
    driver, and none of its flags parses."""

    PAPER_ARTIFACTS = [
        "fig4", "fig5", "tab7_9", "tab10", "tab11", "fig6", "fig7", "fig8",
        "fig9", "efficiency", "certification",
    ]

    REMOVED_FLAGS = [
        ["--method", "ours"],
        ["--scenario", "backdoor"],
        ["--sweep", "deletion.rate=0.02,0.06"],
        ["--codec", "delta"],
        ["--vectorize"],
        ["--result-store", "store"],
    ]

    def test_matrix_is_gone_and_its_flags_do_not_parse(self, capsys):
        assert main(["matrix"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        for flag in self.REMOVED_FLAGS:
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig5", *flag])
            assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == self.PAPER_ARTIFACTS + ["all"]


class TestAllHonorsDataset:
    def test_dataset_threads_through_all(self, capsys, monkeypatch):
        """`all --dataset X` restricts every experiment to X (satellite fix:
        the suite previously dropped the flag and ran every panel)."""
        from repro.experiments import SMOKE, scale as scale_module
        tiny = SMOKE.with_overrides(
            train_size=120, test_size=60, pretrain_rounds=1, local_epochs=1,
            unlearn_rounds=1, shard_counts=(1, 2), client_counts=(3,),
        )
        monkeypatch.setitem(scale_module.SCALES, "smoke", tiny)
        assert main(["all", "--dataset", "mnist"]) == 0
        out = capsys.readouterr().out
        # fig5 ran only the mnist table, not fmnist/cifar panels
        assert "Table III" in out
        assert "Table IV" not in out  # fmnist table absent
        assert "(fmnist)" not in out

    def test_unsupported_dataset_skips_restricted(self, capsys, monkeypatch):
        from repro.experiments.cli import _supports_dataset

        assert _supports_dataset("tab7_9", "mnist")
        assert not _supports_dataset("tab7_9", "cifar100")
        assert _supports_dataset("fig6", "cifar100")


class TestArtifactsAreExecutionIndependent:
    """Every artifact the CLI runs reports the same content serially and on
    a two-worker pool: only wall-clock values and the runtime line differ."""

    @staticmethod
    def _run(backend, monkeypatch):
        from repro.experiments.results import ExperimentResult
        from repro.runtime import BACKEND_ENV_VAR

        printed = []
        monkeypatch.setattr(
            ExperimentResult, "print", lambda result: printed.append(result)
        )
        if backend:
            monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        else:
            monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        run_experiment("all", "smoke", "mnist", 0)
        payloads = []
        for result in printed:
            payload = result.to_dict()
            payload.pop("runtime")
            payload["rows"] = [
                {key: value for key, value in row.items() if key != "wall_s"}
                for row in payload["rows"]
            ]
            payloads.append(payload)
        return payloads

    def test_serial_and_pool_report_the_same_artifacts(self, monkeypatch):
        from repro.experiments import SMOKE, scale as scale_module
        tiny = SMOKE.with_overrides(
            train_size=40, test_size=20, num_clients=2, pretrain_rounds=1,
            local_epochs=1, unlearn_rounds=1, batch_size=20,
            shard_counts=(2,), client_counts=(2,),
        )
        monkeypatch.setitem(scale_module.SCALES, "smoke", tiny)
        serial = self._run("", monkeypatch)
        pooled = self._run("pool:2", monkeypatch)
        assert [p["experiment_id"] for p in serial] == [
            "Fig 4a", "Table III / Fig 5a", "Table VII", "Table X", "Table XI",
            "Fig 6", "Fig 7 (2% deletion)", "Fig 7 (6% deletion)",
            "Fig 7 (10% deletion)", "Fig 8 (2 clients)", "Table XII", "Fig 9",
            "efficiency", "certification",
        ]
        assert pooled == serial
