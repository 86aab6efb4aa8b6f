#!/usr/bin/env python3
"""Self-tests of the benchmark itself (no build, no server):

    python3 perfbench/selftest.py
"""
import json
import os
import struct
import sys
import unittest

sys.dont_write_bytecode = True
import oracle  # noqa: E402
import run  # noqa: E402
import script  # noqa: E402


def response(entry, **fields):
    return json.dumps({"id": entry.id, "cmd": entry.verb, "ok": True, **fields})


def first(entries, pred):
    return next(e for e in entries if pred(e))


class ScriptTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_script(self):
        for workload in ("dispute", "enroll"):
            self.assertEqual(script.script_text(workload, 7, 500),
                             script.script_text(workload, 7, 500))
            self.assertNotEqual(script.script_text(workload, 7, 500),
                                script.script_text(workload, 8, 500))

    def test_dispute_mix(self):
        entries = [e for door in ("line", "http")
                   for e, _ in zip(script.dispute_entries(3, door), range(2000))]
        negative = sum(e.expect["negative"] for e in entries) / len(entries)
        self.assertAlmostEqual(negative, script.NEGATIVE_SHARE, delta=0.03)
        self.assertEqual({e.verb for e in entries}, {"extract", "verify", "trace"})
        self.assertEqual({(e.model, e.quant) for e in entries}, set(script.DISPUTE_SPECS))
        self.assertEqual(len({e.id for e in entries}), len(entries))

    def test_specs_are_homed_on_different_shards(self):
        for specs in (script.DISPUTE_SPECS, script.ENROLL_SPECS):
            self.assertEqual({script.ring_shard(m, q) for m, q in specs}, {0, 1})


class NamesTest(unittest.TestCase):
    def test_emitted_names_are_declared_in_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        declared = {"end_to_end": run.END_TO_END, "per_layer": run.PER_LAYER}
        for section, emitted in declared.items():
            listed = {m["name"]: m["unit"] for m in bench[section]}
            self.assertEqual(listed, emitted, section)
            for name in emitted:
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual([w["name"] for w in bench["workloads"]], ["dispute", "enroll", "ppl"])


class OracleTest(unittest.TestCase):
    def setUp(self):
        entries = list(e for door in ("line", "http")
                       for e, _ in zip(script.dispute_entries(5, door), range(400)))
        self.pick = lambda verb, negative: first(
            entries, lambda e: e.verb == verb and e.expect["negative"] == negative)

    def judge(self, entry, reply, inserts=None):
        kind, msg = oracle.classify(reply)
        self.assertEqual(kind, "ok")
        oracle.check(entry, msg, {} if inserts is None else inserts)

    def test_accepts_correct_answers(self):
        self.judge(self.pick("extract", False),
                   response(self.pick("extract", False), wer_pct=100, matched_bits=64, total_bits=64))
        self.judge(self.pick("extract", True),
                   response(self.pick("extract", True), wer_pct=0, matched_bits=0, total_bits=64))
        self.judge(self.pick("verify", True), response(self.pick("verify", True), verified=False))
        trace = self.pick("trace", False)
        self.judge(trace, response(trace, device=trace.expect["device"], matched=True, wer_pct=100))

    def test_rejects_wer_99(self):
        e = self.pick("extract", False)
        with self.assertRaises(oracle.WrongAnswer):
            self.judge(e, response(e, wer_pct=99, matched_bits=99, total_bits=100))

    def test_rejects_clean_codes_match(self):
        e = self.pick("extract", True)
        with self.assertRaises(oracle.WrongAnswer):
            self.judge(e, response(e, wer_pct=100, matched_bits=64, total_bits=64))
        e = self.pick("verify", True)
        with self.assertRaises(oracle.WrongAnswer):
            self.judge(e, response(e, verified=True))
        e = self.pick("trace", True)
        with self.assertRaises(oracle.WrongAnswer):
            self.judge(e, response(e, device=script.device_id(1), matched=True, wer_pct=100))

    def test_rejects_wrong_device(self):
        e = self.pick("trace", False)
        other = script.device_id((int(e.expect["device"][-1]) + 1) % script.FLEET_DEVICES)
        with self.assertRaises(oracle.WrongAnswer):
            self.judge(e, response(e, device=other, matched=True, wer_pct=100))

    def test_enroll_extract_must_read_its_own_insert(self):
        ins, ext = list(zip(range(2), script.enroll_entries(1, 0)))
        ins, ext = ins[1], ext[1]
        files = {k: ins.param(k) for k in ("codes", "record", "evidence")}
        inserts = {}
        self.judge(ins, response(ins, total_bits=96, **files), inserts)
        self.judge(ext, response(ext, wer_pct=100, matched_bits=96, total_bits=96), inserts)
        with self.assertRaises(oracle.WrongAnswer):
            self.judge(ext, response(ext, wer_pct=100, matched_bits=48, total_bits=48), inserts)

    def test_refusals_are_counted_not_judged(self):
        self.assertEqual(oracle.classify('{"ok":false,"shed":true}')[0], "shed")
        self.assertEqual(oracle.classify('{"ok":false,"retryable":true}')[0], "retryable")
        self.assertEqual(oracle.classify('{"ok":false,"error":"x"}')[0], "failed")
        self.assertEqual(oracle.classify(None)[0], "failed")

    def test_rejects_ppl_one_ulp_off(self):
        ref = struct.unpack("<Q", struct.pack("<d", 4.7515083048615920))[0]
        oracle.check_ppl(f"{ref:016x}", f"{ref:016x}")
        with self.assertRaises(oracle.WrongAnswer):
            oracle.check_ppl(f"{ref:016x}", f"{ref:016x},{ref + 1:016x}")


class PercentileTest(unittest.TestCase):
    def test_failures_count_as_misses(self):
        p50, p99, beyond = run.percentiles([1.0] * 98 + [float("inf")] * 2, 5.0, 99)
        self.assertEqual((p50, p99, beyond), (1.0, 5000.0, 1))
        self.assertEqual(run.percentiles(list(range(1, 101)), 1.0, 90), (50.5, 90, 10))


if __name__ == "__main__":
    unittest.main()
