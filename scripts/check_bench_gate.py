#!/usr/bin/env python3
"""Benchmark-shape gates for CI (stdlib only, no third-party deps).

Each gate compares a fresh benchmark record against its committed wall
(BENCH_*.json) and fails when a per-unit cost stops scaling. Shared CI
runners make *absolute* timings meaningless, so a gate judges a
hardware-independent shape instead: the ratio of a per-unit cost on a
large generated design to the same cost on the EWF-scale design, measured
within one run on one machine. The gate fails when the fresh ratio exceeds
`bound` times the committed wall's ratio for the same pair of rows.

Gates (one row of GATES each):
  scaling  BM_ScalingMoves ns_per_move, ~5k-op cascade vs EWF
           (bench_runtime with SALSA_SCALING_JSON; wall BENCH_scaling.json).
           An O(n) scan creeping back into a move proposer blows the ratio
           up by orders of magnitude.
  sim      compiled-engine ns_per_firing, 10k-op cascade vs EWF
           (salsa_audit --sim-wall; wall BENCH_sim.json). A per-step
           rescan over FU actions or register loads does the same.
  initial  BM_InitialAllocation ns_per_storage, ~5k-op cascade vs EWF
           (bench_runtime with SALSA_INITIAL_JSON; wall
           BENCH_initial.json). A per-candidate std::set lookup or vector
           allocation back in the placement loop costs the cascade's
           scores of candidate registers per storage far more than EWF's
           few.

Usage: check_bench_gate.py <gate> <fresh.json> [<wall.json>]
       check_bench_gate.py --self-test [<gate> ...]
Records are JSON arrays of rows carrying at least {family, ops, <metric>}.
The wall defaults to the gate's committed file in the repository root.

--self-test runs the unit tests for the ratio math and the missing-row /
NaN / non-positive error paths of the named gates (all gates by default;
wired into ctest as <gate>_gate_selftest and into the scaling-smoke and
sim-smoke CI jobs), exiting non-zero on any failure.
"""

import json
import math
import os
import sys
from collections import namedtuple

# wall: committed record; metric: per-unit cost field; unit: what it is
# per; big/small: (family, min ops) selectors of the judged and reference
# rows; bound: allowed fresh/wall ratio growth; cause: what a failure means.
Gate = namedtuple("Gate", "wall metric unit big small bound cause")

GATES = {
    "scaling": Gate("BENCH_scaling.json", "ns_per_move", "move",
                    ("cascade", 5000), ("ewf", 0), 2.0,
                    "a super-linear cost crept back into the move loop"),
    "sim": Gate("BENCH_sim.json", "ns_per_firing", "firing",
                ("cascade", 5000), ("ewf", 0), 2.0,
                "a per-step rescan crept back into the compiled engine"),
    "initial": Gate("BENCH_initial.json", "ns_per_storage", "storage",
                    ("cascade", 5000), ("ewf", 0), 2.0,
                    "a per-candidate set/alloc crept back into initial "
                    "placement"),
}


class GateError(SystemExit):
    """Malformed record: the gate refuses to judge, loudly (exit 1)."""

    def __init__(self, name, message):
        super().__init__(f"{name} gate: {message}")


def per_unit(name, rows, selector):
    """(metric, ops) of the first row matching selector = (family, min_ops).

    Rejects rows whose metric is missing, NaN, infinite or <= 0: a NaN
    would otherwise poison the ratio and sail through every float
    comparison as 'not greater', silently passing the gate.
    """
    metric = GATES[name].metric
    family, min_ops = selector
    for r in rows:
        if r.get("family") == family and r.get("ops", -1) >= min_ops:
            where = f"'{family}' row (ops={r.get('ops')})"
            try:
                value = float(r[metric])
            except KeyError:
                raise GateError(name, f"{where} has no {metric} field")
            except (TypeError, ValueError):
                raise GateError(
                    name, f"{where} has a non-numeric {metric}: "
                    f"{r[metric]!r}")
            if math.isnan(value) or math.isinf(value) or value <= 0:
                raise GateError(
                    name, f"{where} has an invalid {metric} ({value}); "
                    "refusing to judge a ratio on it")
            return value, r["ops"]
    raise GateError(
        name, f"no '{family}' row with >= {min_ops} ops in the record")


def ratio(name, rows):
    gate = GATES[name]
    small, small_ops = per_unit(name, rows, gate.small)
    big, big_ops = per_unit(name, rows, gate.big)
    return big / small, small, small_ops, big, big_ops


def judge(name, fresh, wall):
    """Returns (ok, lines): the gate verdict plus its printable report."""
    gate = GATES[name]
    fresh_ratio, fs, fso, fb, fbo = ratio(name, fresh)
    wall_ratio, ws, wso, wb, wbo = ratio(name, wall)
    small_family, big_family = gate.small[0], gate.big[0]
    per = f"ns/{gate.unit}"

    lines = [
        f"fresh: {small_family}({fso} ops) {fs:.0f} {per}, "
        f"{big_family}({fbo} ops) {fb:.0f} {per} -> ratio {fresh_ratio:.2f}",
        f"wall:  {small_family}({wso} ops) {ws:.0f} {per}, "
        f"{big_family}({wbo} ops) {wb:.0f} {per} -> ratio {wall_ratio:.2f}",
    ]
    limit = gate.bound * wall_ratio
    if fresh_ratio > limit:
        lines.append(
            f"FAIL: per-{gate.unit} ratio {fresh_ratio:.2f} exceeds "
            f"{gate.bound:.0f}x the committed wall ({wall_ratio:.2f}); "
            f"{gate.cause}")
        return False, lines
    lines.append(
        f"ok: ratio {fresh_ratio:.2f} within {gate.bound:.0f}x of the "
        f"wall ({limit:.2f})")
    return True, lines


def gate_tests(name):
    """Unit tests for one gate's ratio math and every error path."""
    import unittest

    gate = GATES[name]
    big_family, big_min = gate.big
    small_family, _ = gate.small

    def row(family, ops, value):
        return {"family": family, "ops": ops, gate.metric: value}

    # Reference ratio 5.0; the fresh records below probe the 2x bound.
    WALL = [row(small_family, 34, 700.0), row(big_family, big_min, 3500.0)]

    class GateTests(unittest.TestCase):
        def test_per_unit_picks_first_matching_row(self):
            rows = [row(big_family, big_min // 5, 1.0),
                    row(big_family, big_min, 9.0),
                    row(big_family, big_min * 10, 99.0)]
            self.assertEqual(per_unit(name, rows, gate.big), (9.0, big_min))

        def test_per_unit_min_ops_zero_matches_any(self):
            self.assertEqual(per_unit(name, WALL, gate.small), (700.0, 34))

        def test_ratio_math(self):
            r, small, small_ops, big, big_ops = ratio(name, WALL)
            self.assertAlmostEqual(r, 5.0)
            self.assertEqual((small, small_ops), (700.0, 34))
            self.assertEqual((big, big_ops), (3500.0, big_min))

        def test_gate_passes_within_bound(self):
            fresh = [row(small_family, 34, 650.0),
                     row(big_family, big_min, 6000.0)]
            ok, lines = judge(name, fresh, WALL)  # ratio 9.23 < 10.0
            self.assertTrue(ok)
            self.assertIn("ok:", lines[-1])

        def test_gate_fails_beyond_bound(self):
            fresh = [row(small_family, 34, 650.0),
                     row(big_family, big_min, 7000.0)]
            ok, lines = judge(name, fresh, WALL)  # ratio 10.77 > 10.0
            self.assertFalse(ok)
            self.assertIn("FAIL", lines[-1])
            self.assertIn(gate.cause, lines[-1])

        def test_gate_boundary_is_not_a_failure(self):
            fresh = [row(small_family, 34, 700.0),
                     row(big_family, big_min, 7000.0)]
            ok, _ = judge(name, fresh, WALL)  # exactly 2x: allowed
            self.assertTrue(ok)

        def test_missing_family_row_errors(self):
            with self.assertRaises(SystemExit) as ctx:
                per_unit(name, [row(small_family, 34, 700.0)], gate.big)
            self.assertIn(f"no '{big_family}' row", str(ctx.exception))

        def test_too_small_ops_errors(self):
            with self.assertRaises(SystemExit):
                per_unit(name, [row(big_family, big_min // 5, 5.0)],
                         gate.big)

        def test_nan_refused_not_silently_passed(self):
            # float('nan') > limit is False for every limit — without the
            # explicit check a NaN row would pass the gate unnoticed.
            fresh = [row(small_family, 34, float("nan")),
                     row(big_family, big_min, 3500.0)]
            with self.assertRaises(SystemExit) as ctx:
                judge(name, fresh, WALL)
            self.assertIn(f"invalid {gate.metric}", str(ctx.exception))

        def test_infinite_and_nonpositive_refused(self):
            for bad in (float("inf"), 0.0, -3.0):
                with self.assertRaises(SystemExit):
                    per_unit(name, [row(small_family, 34, bad)], gate.small)

        def test_missing_metric_field_errors(self):
            broken = [{"family": small_family, "ops": 34}]
            with self.assertRaises(SystemExit) as ctx:
                per_unit(name, broken, gate.small)
            self.assertIn(f"no {gate.metric}", str(ctx.exception))

        def test_non_numeric_metric_errors(self):
            with self.assertRaises(SystemExit) as ctx:
                per_unit(name, [row(small_family, 34, "fast")], gate.small)
            self.assertIn("non-numeric", str(ctx.exception))

    GateTests.__name__ = f"{name.capitalize()}GateTests"
    return unittest.defaultTestLoader.loadTestsFromTestCase(GateTests)


def self_test(names):
    import unittest

    unknown = [n for n in names if n not in GATES]
    if unknown:
        raise SystemExit(f"unknown gate(s) {unknown}; known: {list(GATES)}")
    suite = unittest.TestSuite(gate_tests(n) for n in names or GATES)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main(argv):
    if argv and argv[0] == "--self-test":
        raise SystemExit(self_test(argv[1:]))
    if len(argv) not in (2, 3) or argv[0] not in GATES:
        raise SystemExit(__doc__)
    name = argv[0]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    wall_path = argv[2] if len(argv) == 3 else os.path.join(
        root, GATES[name].wall)
    with open(argv[1]) as f:
        fresh = json.load(f)
    with open(wall_path) as f:
        wall = json.load(f)

    ok, lines = judge(name, fresh, wall)
    for line in lines:
        print(line)
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
