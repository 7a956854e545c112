"""The scripts' exit codes."""

import importlib.util
import pathlib

from kklab import extremal_search

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFreezeExtremalConstants:
    def test_disagreeing_annealer_exits_one(self, monkeypatch, capsys):
        freeze = load_script("freeze_extremal_constants")

        def idle_annealer(n, q, pattern, budget, seed, host_cap):
            # no moves: the edgeless host, which no sweep maximizer matches
            return extremal_search(n, q, pattern, budget=0, seed=seed, host_cap=host_cap)

        monkeypatch.setattr(freeze, "extremal_search", idle_annealer)
        assert freeze.main(["--budget", "1", "--v-cap", "4"]) == 1
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 3 and all(" NO " in row for row in rows)

    def test_prints_frozen_candidate_counts(self, capsys):
        freeze = load_script("freeze_extremal_constants")
        freeze.main(["--budget", "1", "--v-cap", "6"])
        rows = [row.split() for row in capsys.readouterr().out.splitlines()[2:]]
        # criterion 7 freezes these: 208 graphs on at most 6 vertices and
        # 82, 54, 25 q-sparse classes among them for K3, C4 and P3
        assert [(row[0], row[2], row[3]) for row in rows] == [
            ("K3", "208", "82"), ("C4", "208", "54"), ("P3", "208", "25"),
        ]


class TestProbeThresholds:
    def test_broken_order_exits_one(self, monkeypatch, capsys):
        probe = load_script("probe_thresholds")
        # every comparison reads p_E > q_min
        monkeypatch.setattr(probe, "value_cmp", lambda a, b: 1)
        assert probe.main(["--n", "8", "--patterns", "P2", "--trials", "20"]) == 1
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].split()[-1] == "NO"
