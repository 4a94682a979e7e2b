// The declarative descriptor layer: strict scalar parsing, StatSet
// publish/sample semantics, and the two knob tables (platform + bench) that
// feed overlay_config() and make_env().
//
// The load-bearing properties:
//  * every knob's advertised default round-trips through its own
//    apply()/read() pair (CLI -> config -> CLI is the identity on defaults);
//  * out-of-bounds and malformed values are REJECTED with a message, never
//    silently replaced by a fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/descriptor.hpp"
#include "obs/metrics.hpp"
#include "system/config_bridge.hpp"
#include "system/runner.hpp"

namespace hmcc {
namespace {

// --- Strict scalar parsers -------------------------------------------------

TEST(DescriptorParse, UIntAcceptsPlainDecimal) {
  const auto p = desc::parse_uint("42", 0, 100);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.value, 42u);
}

TEST(DescriptorParse, UIntRejectsMalformedInput) {
  for (const char* bad : {"", "abc", "4x", " 4", "4 ", "-1", "+4", "0x10"}) {
    EXPECT_FALSE(desc::parse_uint(bad, 0, 100).ok) << bad;
    EXPECT_FALSE(desc::parse_uint(bad, 0, 100).error.empty()) << bad;
  }
}

TEST(DescriptorParse, UIntEnforcesBounds) {
  EXPECT_TRUE(desc::parse_uint("2", 2, 8).ok);
  EXPECT_TRUE(desc::parse_uint("8", 2, 8).ok);
  EXPECT_FALSE(desc::parse_uint("1", 2, 8).ok);
  EXPECT_FALSE(desc::parse_uint("9", 2, 8).ok);
  const auto p = desc::parse_uint("9", 2, 8);
  EXPECT_NE(p.error.find("[2, 8]"), std::string::npos) << p.error;
}

TEST(DescriptorParse, BoolAcceptsConfigSpellings) {
  for (const char* yes : {"1", "true", "yes", "on"}) {
    const auto p = desc::parse_bool(yes);
    ASSERT_TRUE(p.ok) << yes;
    EXPECT_TRUE(p.value) << yes;
  }
  for (const char* no : {"0", "false", "no", "off"}) {
    const auto p = desc::parse_bool(no);
    ASSERT_TRUE(p.ok) << no;
    EXPECT_FALSE(p.value) << no;
  }
  EXPECT_FALSE(desc::parse_bool("maybe").ok);
  EXPECT_FALSE(desc::parse_bool("").ok);
}

// --- StatSet ---------------------------------------------------------------

TEST(StatSet, PublishesEveryKind) {
  std::uint64_t hits = 7;
  double fill = 0.25;
  desc::StatSet set;
  set.counter("t_hits_total", "hits", [&] { return hits; })
      .gauge("t_fill", "fill", [&] { return fill; })
      .histogram("t_sizes", "sizes", {10.0, 20.0},
                 [] {
                   return desc::HistSample{{10.0, 3}, {20.0, 2}};
                 });
  obs::MetricsRegistry reg;
  set.publish(reg);
  EXPECT_EQ(reg.counter_value("t_hits_total"), 7u);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("t_fill 0.25"), std::string::npos);
  EXPECT_NE(text.find("t_sizes_count 5"), std::string::npos);
  EXPECT_NE(text.find("t_sizes_sum 70"), std::string::npos);
}

TEST(StatSet, SampleFeedsGaugeAndHistogram) {
  double occupancy = 3.0;
  desc::StatSet set;
  set.sampled_gauge("t_occ", "occupancy", {2.0, 8.0},
                    [&] { return occupancy; });
  set.gauge("t_plain", "not sampled", [] { return 1.0; });

  obs::MetricsRegistry reg;
  EXPECT_EQ(set.sample(reg), 1u);  // the plain gauge is not sampled
  occupancy = 9.0;
  EXPECT_EQ(set.sample(reg), 1u);

  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("t_occ 9"), std::string::npos);  // last sampled value
  EXPECT_NE(text.find("t_occ_samples_count 2"), std::string::npos);
  EXPECT_NE(text.find("t_occ_samples_bucket{le=\"8\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("t_plain_samples"), std::string::npos);
}

TEST(StatSet, ExtendConcatenatesInOrder) {
  desc::StatSet a;
  a.counter("t_a_total", "a", [] { return std::uint64_t{1}; });
  desc::StatSet b;
  b.counter("t_b_total", "b", [] { return std::uint64_t{2}; });
  a.extend(std::move(b));
  ASSERT_EQ(a.entries().size(), 2u);
  EXPECT_EQ(a.entries()[0].name, "t_a_total");
  EXPECT_EQ(a.entries()[1].name, "t_b_total");
}

// --- Platform knob table ---------------------------------------------------

TEST(PlatformKnobs, DefaultsRoundTripThroughApplyAndRead) {
  for (const auto& k : system::platform_knobs()) {
    if (k.meta.kind == desc::KnobKind::kString) continue;  // "" is a value
    system::SystemConfig cfg = system::paper_system_config();
    const std::string err = k.apply(cfg, k.meta.default_value);
    EXPECT_EQ(err, "") << k.meta.key << "=" << k.meta.default_value;
    EXPECT_EQ(k.read(cfg), k.meta.default_value) << k.meta.key;
  }
}

TEST(PlatformKnobs, UIntKnobsRejectOutOfBoundsAndGarbage) {
  for (const auto& k : system::platform_knobs()) {
    if (k.meta.kind != desc::KnobKind::kUInt) continue;
    system::SystemConfig cfg = system::paper_system_config();
    EXPECT_NE(k.apply(cfg, "notanumber"), "") << k.meta.key;
    if (k.meta.min_value > 0) {
      EXPECT_NE(k.apply(cfg, std::to_string(k.meta.min_value - 1)), "")
          << k.meta.key;
    }
    if (k.meta.max_value != ~0ULL) {
      EXPECT_NE(k.apply(cfg, std::to_string(k.meta.max_value + 1)), "")
          << k.meta.key;
    }
  }
}

TEST(PlatformKnobs, EnumAndBoolKnobsRejectUnknownSpellings) {
  for (const auto& k : system::platform_knobs()) {
    if (k.meta.kind != desc::KnobKind::kEnum &&
        k.meta.kind != desc::KnobKind::kBool) {
      continue;
    }
    system::SystemConfig cfg = system::paper_system_config();
    const std::string err = k.apply(cfg, "warpspeed");
    EXPECT_NE(err, "") << k.meta.key;
  }
}

TEST(PlatformKnobs, ModeRejectsRetiredFullAlias) {
  // "full" (a retired alias of "coalescer") fails like any unknown
  // spelling, reported under the mode: key.
  Config cli;
  cli.set("mode", "full");
  system::SystemConfig cfg = system::paper_system_config();
  cfg.mode = system::CoalescerMode::kNone;
  std::vector<std::string> errors;
  EXPECT_FALSE(system::overlay_config(cli, cfg, errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0],
            "mode: 'full' is not one of none|conventional|dmc-only|coalescer");
  EXPECT_EQ(cfg.mode, system::CoalescerMode::kNone);
}

TEST(PlatformKnobs, OverlayAppliesNonDefaultsAndReadsThemBack) {
  // llc_mshrs rides along with window: the CRQ-capacity constraint rejects
  // a window wider than the MSHR file.
  const std::vector<std::pair<std::string, std::string>> want = {
      {"cores", "8"},        {"l1_kb", "64"},       {"window", "32"},
      {"llc_mshrs", "32"},   {"mode", "dmc-only"},  {"pipeline", "step"},
      {"closed_page", "0"},  {"vaults", "16"},      {"sample_interval", "2500"},
  };
  Config cli;
  for (const auto& [k, v] : want) cli.set(k, v);
  system::SystemConfig cfg = system::paper_system_config();
  std::vector<std::string> errors;
  ASSERT_TRUE(system::overlay_config(cli, cfg, errors));
  ASSERT_TRUE(errors.empty());

  const auto& knobs = system::platform_knobs();
  for (const auto& kv : want) {
    const std::string& key = kv.first;
    const auto it = std::find_if(
        knobs.begin(), knobs.end(),
        [&key](const auto& k) { return k.meta.key == key; });
    ASSERT_NE(it, knobs.end()) << key;
    EXPECT_EQ(it->read(cfg), kv.second) << key;
  }
}

TEST(PlatformKnobs, OverlayCollectsOneErrorPerBadKnob) {
  Config cli;
  cli.set("cores", "abc");
  cli.set("vaults", "0");
  cli.set("mode", "warpspeed");
  system::SystemConfig cfg = system::paper_system_config();
  std::vector<std::string> errors;
  EXPECT_FALSE(system::overlay_config(cli, cfg, errors));
  ASSERT_EQ(errors.size(), 3u);
  for (const char* key : {"cores", "vaults", "mode"}) {
    EXPECT_TRUE(std::any_of(errors.begin(), errors.end(),
                            [key](const std::string& e) {
                              return e.rfind(key, 0) == 0;
                            }))
        << key;
  }
}

TEST(PlatformKnobs, EmptyEnumValueKeepsCurrentSetting) {
  Config cli;
  cli.set("mode", "");
  cli.set("pipeline", "");
  system::SystemConfig cfg = system::paper_system_config();
  const system::CoalescerMode before = cfg.mode;
  std::vector<std::string> errors;
  EXPECT_TRUE(system::overlay_config(cli, cfg, errors));
  EXPECT_EQ(cfg.mode, before);
}

TEST(PlatformKnobs, ConfigFromCliThrowsWithEveryProblemListed) {
  Config cli;
  cli.set("cores", "zero");
  cli.set("window", "12");  // in bounds, structurally not a power of two
  try {
    (void)system::config_from_cli(cli);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cores:"), std::string::npos);
    EXPECT_NE(what.find("window:"), std::string::npos);
  }
}

TEST(PlatformKnobs, MetadataMatchesKeysAndCarriesDefaults) {
  const auto& knobs = system::platform_knobs();
  const auto& keys = system::platform_cli_keys();
  ASSERT_EQ(knobs.size(), keys.size());
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    const desc::KnobMeta& meta = knobs[i].meta;
    EXPECT_EQ(meta.key, keys[i]);
    EXPECT_EQ(meta.scope, "platform");
    EXPECT_FALSE(meta.help.empty()) << meta.key;
    if (meta.kind != desc::KnobKind::kString) {
      EXPECT_FALSE(meta.default_value.empty()) << meta.key;
    }
  }
}

// --- Bench knob table ------------------------------------------------------

TEST(BenchKnobs, TableCoversTheHistoricalKeys) {
  const std::vector<std::string> expected = {
      "accesses", "seed",  "csv",
      "warps",    "warp_width", "lanes", "max_outstanding_warps"};
  EXPECT_EQ(bench::bench_cli_keys(), expected);
}

TEST(BenchKnobs, MakeEnvAppliesOverridesAndKeepsDefaultsOnErrors) {
  Config cli;
  cli.set("accesses", "1234");
  cli.set("seed", "notanumber");  // rejected -> default kept (+ warning)
  const bench::BenchEnv env = bench::make_env(cli, "figXX", 500);
  EXPECT_EQ(env.params.accesses_per_core, 1234u);
  EXPECT_EQ(env.params.seed, 1u);
  EXPECT_EQ(env.csv_path, "figXX.csv");
}

// --- Knob metadata ---------------------------------------------------------

// True when the bench or platform table declares @p key in @p scope.
bool declares(const char* key, const char* scope) {
  auto in = [&](const auto& knobs) {
    return std::any_of(knobs.begin(), knobs.end(), [&](const auto& k) {
      return k.meta.key == key && k.meta.scope == scope;
    });
  };
  return in(bench::bench_knobs()) || in(system::platform_knobs());
}

TEST(KnobMetadataJson, IsGeneratedFromBothTables) {
  // The keys make_env() accepts are the bench table's key column, in table
  // order, all in bench scope; the platform side is checked above against
  // platform_cli_keys(). No key is declared by both tables.
  const auto& bench_meta = bench::bench_knobs();
  const auto& bench_keys = bench::bench_cli_keys();
  ASSERT_EQ(bench_meta.size(), bench_keys.size());
  for (std::size_t i = 0; i < bench_meta.size(); ++i) {
    EXPECT_EQ(bench_meta[i].meta.key, bench_keys[i]);
    EXPECT_EQ(bench_meta[i].meta.scope, "bench");
    EXPECT_FALSE(declares(bench_keys[i].c_str(), "platform")) << bench_keys[i];
  }
}

TEST(KnobMetadataJson, AdvertisesWarpAndTraceIoKnobs) {
  // bench_suite can shape the warp front-end and replay shipped .hmct
  // corpora; the knob tables must declare all six knobs.
  EXPECT_TRUE(declares("warps", "bench"));
  EXPECT_TRUE(declares("warp_width", "bench"));
  EXPECT_TRUE(declares("lanes", "bench"));
  EXPECT_TRUE(declares("max_outstanding_warps", "bench"));
  EXPECT_TRUE(declares("trace_record", "platform"));
  EXPECT_TRUE(declares("trace_replay", "platform"));
}

TEST(KnobMetadataJson, AdvertisesTheSampleIntervalKnob) {
  EXPECT_TRUE(declares("sample_interval", "platform"));
}

// --- Registry vs run report parity ----------------------------------------

TEST(DescriptorParity, SystemStatDescriptorsMatchTheReport) {
  system::SystemConfig cfg = system::paper_system_config();
  cfg.hierarchy.num_cores = 2;
  cfg.obs.metrics = true;
  workloads::WorkloadParams p;
  p.accesses_per_core = 1500;
  p.seed = 11;
  const auto r = system::run_workload("hpcg", cfg, p);
  const std::string& text = r.metrics_text;
  auto value_of = [&text](const std::string& series) {
    // Leading newline so the needle can't land on the "# HELP series ..."
    // comment of the same family.
    const std::string needle = "\n" + series + " ";
    const std::size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << series;
    if (pos == std::string::npos) return 0.0;
    return std::stod(text.substr(pos + needle.size()));
  };
  EXPECT_EQ(value_of("hmcc_system_cpu_accesses_total"),
            static_cast<double>(r.report.cpu_accesses));
  EXPECT_EQ(value_of("hmcc_system_llc_misses_total"),
            static_cast<double>(r.report.llc_misses));
  EXPECT_EQ(value_of("hmcc_coalescer_memory_requests_total"),
            static_cast<double>(r.report.memory_requests));
  EXPECT_EQ(value_of("hmcc_hmc_transferred_bytes_total"),
            static_cast<double>(r.report.hmc.transferred_bytes));
  EXPECT_EQ(value_of("hmcc_system_runtime_cycles"),
            static_cast<double>(r.report.runtime));
}

}  // namespace
}  // namespace hmcc
