"""Tests of the benchmark's own logic; they need no build.

    python3 perfbench/test_perfbench.py
"""

import random
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))

import evaluate  # noqa: E402
import host  # noqa: E402
import layers  # noqa: E402
from stats import arrivals, job_order, median, rank_value, tail, whole_rounds  # noqa: E402

C17 = """# c17
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = NAND(t1, t2)
t1 = NAND(a, b)
t2 = NAND(b, c)
"""


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail(range(1, 101)), (90, 90, 10))
        self.assertEqual(tail(range(1, 200)), (90, 180, 19))
        self.assertEqual(tail(range(1, 201)), (95, 190, 10))
        self.assertEqual(tail(range(1, 1001)), (99, 990, 10))

    def test_one_short_of_ten_drops_a_grid_step(self):
        self.assertEqual(tail(range(1, 100)), (75, 75, 24))

    def test_too_few_samples_fall_back_to_the_median(self):
        pct, value, beyond = tail(range(1, 16))
        self.assertEqual((pct, value), (50, 8))
        self.assertLess(beyond, 10)

    def test_order_of_samples_does_not_matter(self):
        values = list(range(1, 301))
        random.Random(3).shuffle(values)
        self.assertEqual(tail(values), (95, 285, 15))

    def test_rank_and_median(self):
        self.assertEqual(rank_value([1, 2, 3, 4], 50), (2, 2))
        self.assertEqual(median([4, 1, 3, 2]), 2.5)
        self.assertEqual(median([5, 1, 3]), 3)


class ArrivalSchedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        self.assertEqual(arrivals(7, 16.0, 300), arrivals(7, 16.0, 300))
        self.assertEqual(job_order(7, 57, 300), job_order(7, 57, 300))

    def test_other_seed_other_schedule(self):
        self.assertNotEqual(arrivals(7, 16.0, 300), arrivals(8, 16.0, 300))
        self.assertNotEqual(job_order(7, 57, 300), job_order(8, 57, 300))

    def test_times_increase_at_the_requested_rate(self):
        due = arrivals(1, 16.0, 16000)
        self.assertEqual(due, sorted(due))
        self.assertAlmostEqual(len(due) / due[-1], 16.0, delta=0.5)

    def test_every_instance_is_offered_equally_often(self):
        order = job_order(3, 57, 57 * 5 + 20)
        counts = [order.count(k) for k in range(57)]
        self.assertEqual(min(counts), 5)
        self.assertEqual(max(counts), 6)
        self.assertEqual(sorted(order[:57]), list(range(57)))

    def test_open_loop_offers_whole_rounds(self):
        self.assertEqual(whole_rounds(20.0, 24, 499), 499)
        self.assertEqual(whole_rounds(20.0, 60, 499), 998)
        self.assertEqual(whole_rounds(20.0, 1, 499), 499)


class CountCheck(unittest.TestCase):
    def test_mismatches_within_and_across_replays(self):
        def rec(job_id, counts, repeat=True):
            return {"id": job_id, "counts": counts, "counts_repeat": repeat}

        first = [rec("a", {"search.conflicts": 1}), rec("b", {"search.conflicts": 2}, repeat=False)]
        second = [rec("a", {"search.conflicts": 1}), rec("b", {"search.conflicts": 3})]
        self.assertEqual(layers.count_mismatches(first, second), (["b"], ["b"]))
        self.assertEqual(layers.count_mismatches(first[:1], second[:1]), ([], []))


class HostAdjustment(unittest.TestCase):
    def speed(self, by_phase):
        h = host.HostSpeed()
        for phase, loops in by_phase.items():
            h.samples[phase] = [t * host.LOOP_NOMINAL_S for t in loops]
        return h

    def test_slowdown_is_the_mean_loop_time_over_the_nominal(self):
        h = self.speed({"open": [1.0, 2.0], "closed": [3.0]})
        self.assertAlmostEqual(h.slowdown("open"), 1.5)
        self.assertAlmostEqual(h.slowdown("closed"), 3.0)
        self.assertAlmostEqual(h.slowdown(), 2.0)

    def test_times_shrink_and_rates_grow_on_a_slow_host(self):
        measured = {
            "setup_s": (0.2, "s", 10),
            "verdict_p50_ms": (30.0, "ms", 500),
            "jobs_per_s": (50.0, "1/s", 900),
            "peak_rss_mb": (70.0, "MB", 1),
            "ok_frac": (1.0, "fraction", 900),
        }
        out = host.adjust(measured, self.speed({"run": [2.0]}), {})
        self.assertEqual(out["setup_s"], (0.1, "s", 10))
        self.assertEqual(out["verdict_p50_ms"], (15.0, "ms", 500))
        self.assertEqual(out["jobs_per_s"], (100.0, "1/s", 900))
        self.assertEqual(out["peak_rss_mb"], measured["peak_rss_mb"])
        self.assertEqual(out["ok_frac"], measured["ok_frac"])

    def test_a_metric_takes_the_slowdown_of_its_phase(self):
        h = self.speed({"open": [2.0], "closed": [4.0]})
        measured = {"verdict_p50_ms": (10.0, "ms", 1), "jobs_per_s": (10.0, "1/s", 1), "setup_s": (3.0, "s", 1)}
        out = host.adjust(measured, h, {"verdict_p50_ms": "open", "jobs_per_s": "closed"})
        self.assertAlmostEqual(out["verdict_p50_ms"][0], 5.0)
        self.assertAlmostEqual(out["jobs_per_s"][0], 40.0)
        self.assertAlmostEqual(out["setup_s"][0], 1.0)

    def test_metrics_named_as_measured_stay_as_measured(self):
        measured = {"verdict_p50_ms": (10.0, "ms", 1), "verdict_tail_ms": (90.0, "ms", 1)}
        out = host.adjust(measured, self.speed({"run": [2.0]}), {}, ("verdict_tail_ms",))
        self.assertEqual(out["verdict_p50_ms"], (5.0, "ms", 1))
        self.assertEqual(out["verdict_tail_ms"], measured["verdict_tail_ms"])


class Evaluator(unittest.TestCase):
    def test_c17_truth_table_with_forward_references(self):
        n = evaluate.load("bench", C17)
        table = [n.outputs_under(f"{k:03b}")[0] for k in range(8)]
        # y = (a AND b) OR (b AND c), inputs listed a, b, c.
        self.assertEqual(table, [0, 0, 0, 1, 0, 0, 1, 1])
        self.assertEqual([n.satisfied_by(f"{k:03b}") for k in (3, 4)], [True, False])

    def test_every_gate_kind(self):
        text = "INPUT(a)\nINPUT(b)\n" + "".join(
            f"OUTPUT({op.lower()})\n{op.lower()} = {op}(a, b)\n" for op in ("AND", "NAND", "OR", "NOR", "XOR", "XNOR")
        )
        text += "OUTPUT(n)\nn = NOT(a)\nOUTPUT(f)\nf = BUFF(b)\n"
        n = evaluate.Bench(text)
        self.assertEqual(n.outputs_under("10"), [0, 1, 1, 0, 1, 0, 0, 0])
        self.assertEqual(n.outputs_under("11"), [1, 0, 1, 0, 0, 1, 0, 1])

    def test_bit_parallel_matches_single_patterns(self):
        n = evaluate.Bench(C17)
        a, b, c = 0b11110000, 0b11001100, 0b10101010
        (y,) = n.evaluate([a, b, c], 8)
        for k in range(8):
            bits = "".join(str(p >> k & 1) for p in (a, b, c))
            self.assertEqual(y >> k & 1, n.outputs_under(bits)[0])

    def test_aiger_and_gate(self):
        aag = "aag 3 2 0 1 1\n2\n4\n6\n6 2 5\n"  # y = a AND NOT b
        n = evaluate.Aiger(aag)
        self.assertEqual([n.outputs_under(b)[0] for b in ("00", "01", "10", "11")], [0, 0, 1, 0])
        self.assertTrue(evaluate.load("aiger", aag).satisfied_by("10"))
        self.assertFalse(evaluate.load("aiger", aag).satisfied_by("11"))

    def test_dimacs_models(self):
        cnf = evaluate.load("dimacs", "c x\np cnf 3 2\n1 -2 0\n2 3 0\n")
        self.assertTrue(cnf.satisfied_by("111"))
        self.assertTrue(cnf.satisfied_by("001"))
        self.assertFalse(cnf.satisfied_by("010"))
        self.assertFalse(cnf.satisfied_by("100"))
        with self.assertRaises(ValueError):
            cnf.satisfied_by("11")

    def test_wrong_model_length_is_an_error(self):
        with self.assertRaises(ValueError):
            evaluate.Bench(C17).outputs_under("01")

    def test_planted_difference_comes_with_a_witness(self):
        adder = (
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(s)\nOUTPUT(k)\n"
            "x = XOR(a, b)\ns = XOR(x, c)\ng = AND(a, b)\np = AND(x, c)\nk = OR(g, p)\n"
        )
        text, witness = evaluate.plant_difference(adder, random.Random(0))
        self.assertNotEqual(text, adder)
        self.assertTrue(evaluate.distinguishes(evaluate.Bench(adder), evaluate.Bench(text), witness))
        self.assertFalse(evaluate.distinguishes(evaluate.Bench(adder), evaluate.Bench(adder), witness))


if __name__ == "__main__":
    unittest.main()
