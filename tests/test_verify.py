import math

from hopfield_gaussian import verify as v
from hopfield_gaussian.oracles import SymplecticInvariants


class TestReport:
    def test_full_report_shape_and_exit_flag(self):
        report, ok = v.run_verification([1, 3])
        lines = report.splitlines()
        assert lines[0] == "acceptance verification"
        assert lines[-1] == "2 passed, 0 failed"
        assert ok

    def test_selected_subset_runs_only_those(self):
        results = v.run_checks([7])
        assert [r.number for r in results] == [7]

    def test_repeated_reports_are_byte_identical(self):
        assert v.run_verification([1, 7]) == v.run_verification([1, 7])


class TestMutationSmokeTest:
    def test_injected_sign_error_trips_the_ppt_oracle(self, monkeypatch):
        # recompute the invariant pair with the cross determinant added
        # instead of subtracted, as a wrong partial transpose would
        def corrupted(gamma):
            import numpy as np

            g = gamma.entries
            i_a = float(np.linalg.det(g[:2, :2]))
            i_b = float(np.linalg.det(g[2:, 2:]))
            i_c = float(np.linalg.det(g[2:, :2]))
            i_ab = float(np.linalg.det(g))
            delta = i_a + i_b + 2.0 * i_c
            disc = math.sqrt(max(delta * delta - 4.0 * i_ab, 0.0))
            return SymplecticInvariants(
                i_a,
                i_b,
                i_c,
                i_ab,
                math.sqrt(max(0.5 * (delta - disc), 0.0)),
                math.sqrt(0.5 * (delta + disc)),
            )

        monkeypatch.setattr(v, "symplectic_invariants", corrupted)
        result = v.check_ppt_oracle()
        assert not result.passed
        assert "oracle value governs" in " ".join(result.notes)
        report, ok = v.run_verification([9])
        assert not ok
        assert "FAIL" in report
