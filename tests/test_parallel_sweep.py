"""The parallel sweep subsystem: fan-out and determinism.

The contract under test is the determinism requirement: for a fixed code
version, serial and ``jobs=N`` runs of the same sweep are byte-identical
per point.  The canonical rendering the flow keys and digests results
with (:mod:`repro.flow.state`) is checked here too, because it is what
makes "byte-identical" a hash comparison.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import FeatureSet
from repro.flow.state import canonical, code_version, output_digest
from repro.metrics.latency import LatencySeries
from repro.parallel import SweepPoint, effective_jobs, run_sweep
from repro.units import MS


# Sweep-point functions must live at module level (pickled by reference).
def _square(x, seed=0):
    return x * x + seed


def _table1_small(name):
    from repro.experiments.table1 import _table1_point

    return _table1_point(name=name, seed=1, warmup_ns=5 * MS, measure_ns=10 * MS,
                         payload_size=512)


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

    def test_parallel_matches_serial(self):
        points = [SweepPoint(key=i, fn=_square, kwargs={"x": i, "seed": i * 7})
                  for i in range(12)]
        assert run_sweep(points, jobs=4) == run_sweep(points, jobs=1)

    def test_empty_sweep(self):
        assert run_sweep([]) == {}


class TestSerialParallelDeterminism:
    def test_experiment_results_byte_identical(self):
        """Satellite requirement: serial vs ``--jobs 4`` byte-identical."""
        points = [SweepPoint(key=name, fn=_table1_small, kwargs={"name": name})
                  for name in ("Baseline", "PI")]
        serial = run_sweep(points, jobs=1)
        fanned = run_sweep(points, jobs=4)
        assert list(serial) == list(fanned)
        for key in serial:
            assert pickle.dumps(serial[key]) == pickle.dumps(fanned[key])


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
