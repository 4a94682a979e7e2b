// Shared plumbing for the figure-reproduction benches.
//
// Every bench prints an ASCII table mirroring one figure of the paper and
// writes the same rows as CSV (<bench-name>.csv in the working directory,
// or in csvdir=). bench_suite reads its command line once (desc::Args in
// common/descriptor.hpp): the platform table (system/config_bridge.hpp)
// and the workload table (workloads::workload_knobs(): accesses= seed= and
// the warp keys) are applied to one SystemConfig and one WorkloadParams,
// and every bench gets a copy of both in its BenchEnv. A malformed token,
// an unknown key or a rejected value stops bench_suite with exit code 2
// before anything runs.
//
// A bench's points run in parallel but its results are collected in input
// order, so tables and CSVs are identical for any bench_suite threads=.
#pragma once

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "coalescer/dmc_unit.hpp"
#include "common/table.hpp"
#include "system/runner.hpp"
#include "workloads/workload.hpp"

namespace hmcc::bench {

struct BenchEnv {
  /// The paper platform with the command line's platform keys applied; a
  /// bench copies it for each sweep point and overrides what it sweeps.
  system::SystemConfig platform;
  /// accesses= defaults to the bench's own size (desc::BenchMeta).
  workloads::WorkloadParams params;
  std::string csv_path;  ///< "" = no CSV (nocsv=1)
};

/// Payload-granularity coalescing of a captured LLC miss stream, the
/// paper's method for Figures 9-10: cut @p stream into batches of @p window
/// requests in arrival order, sort each batch by sort key and merge it with
/// coalescer::coalesce_payload(). Returns every batch's packets in order.
inline std::vector<coalescer::CoalescedPacket> payload_packets(
    const std::vector<coalescer::CoalescerRequest>& stream,
    std::size_t window) {
  const coalescer::CoalescerConfig cfg;
  std::vector<coalescer::CoalescedPacket> packets;
  for (std::size_t i = 0; i < stream.size(); i += window) {
    const std::size_t end = std::min(stream.size(), i + window);
    std::vector<coalescer::CoalescerRequest> batch(
        stream.begin() + static_cast<std::ptrdiff_t>(i),
        stream.begin() + static_cast<std::ptrdiff_t>(end));
    std::stable_sort(batch.begin(), batch.end(),
                     [](const coalescer::CoalescerRequest& a,
                        const coalescer::CoalescerRequest& b) {
                       return a.sort_key() < b.sort_key();
                     });
    coalescer::DmcResult res = coalescer::coalesce_payload(cfg, batch, 0);
    packets.insert(packets.end(), std::make_move_iterator(res.packets.begin()),
                   std::make_move_iterator(res.packets.end()));
  }
  return packets;
}

}  // namespace hmcc::bench
