"""Sweep points: the serial runner, the flow fan-out, and determinism.

The contract under test is the determinism requirement: for a fixed code
version, a sweep's points run as flow tasks with one worker and with
``jobs=N`` merge to byte-identical results per point.  The canonical
rendering the flow keys and digests results with
(:mod:`repro.flow.state`) is checked here too, because it is what makes
"byte-identical" a hash comparison.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import FeatureSet
from repro.experiments.table1 import table1_points
from repro.flow.graph import TaskGraph
from repro.flow.runner import FlowRunner
from repro.flow.state import canonical, code_version, output_digest
from repro.flow.tasks import sweep_tasks
from repro.metrics.latency import LatencySeries
from repro.parallel import SweepPoint, effective_jobs, run_sweep
from repro.units import MS


# Sweep-point functions must live at module level (pickled by reference).
def _square(x, seed=0):
    return x * x + seed


class TestEffectiveJobs:
    def test_none_and_one_are_serial(self):
        assert effective_jobs(None) == 1
        assert effective_jobs(1) == 1

    def test_zero_and_negative_use_all_cores(self):
        import os

        assert effective_jobs(0) == (os.cpu_count() or 1)
        assert effective_jobs(-3) == (os.cpu_count() or 1)

    def test_explicit_count(self):
        assert effective_jobs(7) == 7


class TestRunSweep:
    def test_results_keyed_and_ordered_by_input(self):
        points = [SweepPoint(key=k, fn=_square, kwargs={"x": k}) for k in (3, 1, 2)]
        out = run_sweep(points)
        assert list(out) == [3, 1, 2]
        assert out == {3: 9, 1: 1, 2: 4}

    def test_duplicate_keys_rejected(self):
        points = [SweepPoint(key="a", fn=_square, kwargs={"x": 1}),
                  SweepPoint(key="a", fn=_square, kwargs={"x": 2})]
        with pytest.raises(ValueError):
            run_sweep(points)

    def test_empty_sweep(self):
        assert run_sweep([]) == {}


class TestSerialParallelDeterminism:
    def test_experiment_results_byte_identical(self, tmp_path):
        """The Table I points as flow tasks: one worker vs two merge to
        pickle-identical results, and to what ``run_sweep`` returns."""
        points = table1_points(seed=1, warmup_ns=5 * MS, measure_ns=10 * MS, payload_size=512)
        merged = {}
        for jobs in (1, 2):
            result = FlowRunner(TaskGraph(sweep_tasks("table1", points)),
                                state_root=tmp_path / f"jobs{jobs}", jobs=jobs, echo=None).run()
            assert result.ok
            merged[jobs] = result.results["table1"]
        serial, fanned = merged[1], merged[2]
        assert list(serial) == list(fanned) == ["Baseline", "PI"]
        for key in serial:
            assert pickle.dumps(serial[key]) == pickle.dumps(fanned[key])
        direct = run_sweep(points)
        assert {k: pickle.dumps(v) for k, v in direct.items()} == \
            {k: pickle.dumps(v) for k, v in serial.items()}


class TestCanonicalAndFingerprint:
    def test_canonical_dict_order_independent(self):
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})

    def test_canonical_distinguishes_dataclasses(self):
        assert canonical(FeatureSet(pi=True)) != canonical(FeatureSet(pi=False))

    def test_output_digest_ignores_identity_and_tracks_samples(self):
        """A result holding an object with the default repr digests by
        value: no memory address may leak into ``output_digest``."""
        def result(samples):
            return {"PI+H+R": LatencySeries(samples)}

        # All three stay alive, so they cannot share an address.
        first, second, moved = result([10, 20]), result([10, 20]), result([10, 21])
        assert output_digest(first) == output_digest(second)
        assert output_digest(first) != output_digest(moved)

    def test_code_version_is_a_short_stable_hash(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16
