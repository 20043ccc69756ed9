#!/usr/bin/env python3
"""Self-test of the gprof bucketing in perfbench/layers.py.

    python3 perfbench/test_layers.py

testdata/flat_profile.txt is a flat profile captured from the -pg runner
(`gprof -b -p`) on verified_chaos_a, posix_publish_meta and fieldio_scale_a,
trimmed to rows
that exercise every booking rule.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402


def fixture_rows():
    with open(os.path.join(HERE, "testdata", "flat_profile.txt")) as f:
        return layers.parse_flat_profile(f.read())


class LayerOfTest(unittest.TestCase):
    def test_module_namespaces(self):
        cases = {
            "nws::net::FlowScheduler::recompute_rates()": "net",
            "nws::sim::Scheduler::step()": "sim",
            "nws::daos::Client::kv_get(nws::daos::KvHandle&)": "daos",
            "nws::dfs::PosixFs::meta_enter()": "dfs",
            "nws::fault::FaultPlan::target_down(unsigned long, long) const": "fault",
            "nws::sim::Task<nws::Status>::promise_type::final_suspend()": "sim",
        }
        for name, layer in cases.items():
            self.assertEqual(layers.layer_of(name), layer, name)

    def test_payload_split_from_harness(self):
        self.assertEqual(layers.layer_of(
            "nws::bench::make_field_payload(std::string const&, unsigned long)"), "payload")
        self.assertEqual(layers.layer_of(
            "nws::bench::make_versioned_payload(std::string const&, unsigned long, unsigned long)"),
            "payload")
        self.assertEqual(layers.layer_of(
            "nws::bench::(anonymous namespace)::pattern_a_reader(nws::daos::Cluster&) [clone .actor]"),
            "harness")

    def test_io_log_is_obs_and_perfbench_is_harness(self):
        self.assertEqual(layers.layer_of("nws::bench::IoLog::record(unsigned int)"), "obs")
        self.assertEqual(layers.layer_of(
            "perfbench::(anonymous namespace)::meta_process(nws::daos::Cluster&)"), "harness")

    def test_common_and_md5(self):
        self.assertEqual(layers.layer_of("nws::Md5::process_block(unsigned char const*)"), "common")
        self.assertEqual(layers.layer_of("nws::Summary::add(double)"), "common")
        self.assertEqual(layers.bucket([(1.0, 5, "nws::Md5::process_block(unsigned char const*)")]),
                         {"common": 1.0, "md5": 1.0})
        self.assertEqual(layers.bucket([(1.0, 5, "nws::Md5Digest::hex[abi:cxx11]() const")]),
                         {"common": 1.0, "md5": 1.0})

    def test_templates_follow_their_first_nws_type(self):
        self.assertEqual(layers.layer_of(
            "std::vector<nws::net::Flow, std::allocator<nws::net::Flow> >::_M_realloc_insert()"), "net")
        self.assertEqual(layers.layer_of(
            "std::vector<nws::bench::IoRecord>::push_back(nws::bench::IoRecord const&)"), "obs")
        self.assertEqual(layers.layer_of("std::vector<double>::push_back(double const&)"),
                         "unattributed")
        self.assertEqual(layers.layer_of("_init"), "unattributed")


class FixtureTest(unittest.TestCase):
    def test_parses_rows_with_and_without_call_counts(self):
        rows = fixture_rows()
        self.assertGreater(len(rows), 10)
        self.assertTrue(any(calls is None for _s, calls, _n in rows))
        self.assertTrue(all(s >= 0 for s, _c, _n in rows))

    def test_buckets_sum_to_profile_total(self):
        rows = fixture_rows()
        buckets = layers.bucket(rows)
        total = sum(s for s, _c, _n in rows)
        self.assertAlmostEqual(sum(v for k, v in buckets.items() if k != "md5"), total, places=6)

    def test_fixture_split(self):
        rows = fixture_rows()
        buckets = layers.bucket(rows)
        # The verified_chaos_a rows dominate: payload synthesis is the largest bucket.
        self.assertEqual(max((v, k) for k, v in buckets.items() if k != "md5")[1], "payload")
        for layer in ("payload", "net", "sim", "daos", "fdb", "dfs", "fault", "harness", "obs",
                      "common", "md5", "unattributed"):
            self.assertIn(layer, buckets)
        self.assertAlmostEqual(buckets["md5"], 0.03, places=6)  # Md5Digest::hex + md5()
        recompute = layers.self_seconds(rows, "nws::net::FlowScheduler::recompute_rates")
        self.assertAlmostEqual(recompute, 0.01, places=6)
        self.assertLessEqual(recompute, buckets["net"])


if __name__ == "__main__":
    unittest.main()
