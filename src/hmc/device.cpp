#include "hmc/device.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace hmcc::hmc {

HmcDevice::HmcDevice(Kernel& kernel, HmcConfig cfg)
    : kernel_(kernel), cfg_(cfg), map_(cfg_) {
  assert(cfg_.valid());
  links_.reserve(cfg_.num_links);
  for (std::uint32_t i = 0; i < cfg_.num_links; ++i) links_.emplace_back(cfg_);
  vaults_.reserve(cfg_.num_vaults);
  for (std::uint32_t i = 0; i < cfg_.num_vaults; ++i) {
    vaults_.emplace_back(cfg_, i);
  }
  vault_depth_.assign(cfg_.num_vaults, 0);
  noc_req_ports_.assign(cfg_.num_links, 0);
  noc_resp_ports_.assign(cfg_.num_links, 0);
  drain_gen_.assign(cfg_.num_vaults, 0);
  drain_at_.assign(cfg_.num_vaults, 0);
  drain_armed_.assign(cfg_.num_vaults, 0);
}

Cycle HmcDevice::noc_traverse(std::vector<Cycle>& ports, std::uint32_t from_q,
                              std::uint32_t to_q, std::uint32_t flits,
                              Cycle enter) {
  // Quadrants sit on a hypercube over their ids (exact 2x2 Manhattan grid
  // for the 4-link cube): distance is the XOR popcount.
  const auto hops =
      static_cast<Cycle>(std::popcount(from_q ^ to_q));
  const Cycle at = enter + cfg_.xbar_latency + hops * cfg_.noc_hop_latency;
  Cycle& port = ports[to_q];
  const Cycle start = std::max(at, port);
  if (start > at) ++noc_contended_;
  port = start + static_cast<Cycle>(flits) * cfg_.cycles_per_flit;
  noc_hops_ += hops;
  return port;
}

Cycle HmcDevice::response_at_link(std::uint32_t link_idx,
                                  std::uint32_t vault_quadrant,
                                  std::uint32_t flits, Cycle data_ready) {
  if (cfg_.noc == NocModel::kQuadrant) {
    return noc_traverse(noc_resp_ports_, vault_quadrant, link_idx, flits,
                        data_ready) +
           cfg_.serdes_latency;
  }
  // Flat return path: crossbar + SerDes.
  return data_ready + cfg_.xbar_latency + cfg_.serdes_latency;
}

void HmcDevice::submit(const RequestPacket& pkt,
                       ResponseCallback on_response) {
  const DecodedAddr d = map_.decode(pkt.addr);
  assert(d.offset + pkt.data_bytes() <= cfg_.block_bytes &&
         "HMC request must not cross a block boundary");

  const std::uint32_t vault_quadrant = d.vault / cfg_.vaults_per_quadrant();
  // Under the flat crossbar the host always enters on the vault's home
  // link; under the quadrant NoC the host rotates across its links and the
  // request traverses the intra-cube network to the target quadrant.
  const std::uint32_t link_idx = cfg_.noc == NocModel::kQuadrant
                                     ? next_host_link_++ % cfg_.num_links
                                     : vault_quadrant;
  Link& link = links_[link_idx];

  // Wire accounting happens at submission: the whole transaction's FLITs are
  // committed to the link either way.
  if (is_read(pkt.cmd)) {
    ++wire_.reads;
  } else {
    ++wire_.writes;
  }
  wire_.payload_bytes += pkt.data_bytes();
  wire_.transferred_bytes += pkt.transferred_bytes();
  wire_.control_bytes += pkt.control_bytes();
  ++outstanding_;
  ++vault_depth_[d.vault];

  const Cycle now = kernel_.now();
  // Request channel serialization, then SerDes + crossbar/NoC to the vault.
  const Cycle req_done = link.send_request(pkt.request_flits(), now);
  const Cycle vault_arrival =
      cfg_.noc == NocModel::kQuadrant
          ? noc_traverse(noc_req_ports_, link_idx, vault_quadrant,
                         pkt.request_flits(), req_done + cfg_.serdes_latency)
          : req_done + cfg_.serdes_latency + cfg_.xbar_latency;

  if (free_ctx_.empty()) {
    pending_.emplace_back();
    free_ctx_.push_back(pending_.size());  // slab index + 1
  }
  const std::uint64_t token = free_ctx_.back();
  free_ctx_.pop_back();
  PendingCtx& ctx = pending_[token - 1];
  ctx.link_idx = link_idx;
  ctx.resp_flits = pkt.response_flits();
  ctx.resp = ResponsePacket{};
  ctx.resp.id = pkt.id;
  ctx.resp.cmd = pkt.cmd;
  ctx.resp.addr = pkt.addr;
  ctx.resp.submitted_at = now;
  ctx.cb = std::move(on_response);

  Vault& vault = vaults_[d.vault];
  if (deferred_sched()) {
    // FR-FCFS / batch: admit into the vault queue; a per-vault drain event
    // serves policy picks at their decision cycles.
    if (vault.full()) {
      // Overflow: force one pick out of the queue to make room. Its
      // decision cycle is the queue's natural next_ready(), which may lie
      // ahead of now — the timing math is pure and the completion still
      // lands in the future.
      respond(d.vault, vault.serve_next(std::max(now, vault.next_ready())));
    }
    vault.enqueue(d, pkt.data_bytes(), vault_arrival, token);
    pump_vault(d.vault);
    return;
  }
  respond(d.vault,
          VaultServed{token, vault.serve(d, pkt.data_bytes(), vault_arrival)});
}

void HmcDevice::pump_vault(std::uint32_t vault_idx) {
  Vault& vault = vaults_[vault_idx];
  // Serve every pick whose decision cycle has come. After each serve the
  // controller pipeline occupies vault_ctrl_latency cycles, so next_ready()
  // advances and the loop terminates.
  while (!vault.queue_empty() && vault.next_ready() <= kernel_.now()) {
    respond(vault_idx, vault.serve_next(kernel_.now()));
  }
  if (vault.queue_empty()) return;
  const Cycle t = vault.next_ready();  // > now: the loop above drained to it
  if (drain_armed_[vault_idx] != 0 && drain_at_[vault_idx] <= t) return;
  const std::uint64_t gen = ++drain_gen_[vault_idx];
  drain_armed_[vault_idx] = 1;
  drain_at_[vault_idx] = t;
  kernel_.schedule_at(t, [this, vault_idx, gen] {
    if (gen != drain_gen_[vault_idx]) return;  // superseded by a reschedule
    drain_armed_[vault_idx] = 0;
    pump_vault(vault_idx);
  });
}

void HmcDevice::respond(std::uint32_t vault_idx, const VaultServed& served) {
  assert(served.token != 0);
  PendingCtx& ctx = pending_[served.token - 1];
  const std::uint32_t vault_quadrant =
      vault_idx / cfg_.vaults_per_quadrant();
  const Cycle resp_at_link = response_at_link(
      ctx.link_idx, vault_quadrant, ctx.resp_flits, served.result.data_ready);
  const Cycle completed =
      links_[ctx.link_idx].send_response(ctx.resp_flits, resp_at_link);
  ctx.resp.completed_at = completed;
  kernel_.schedule_at(completed, [this, vault = vault_idx,
                                  token = served.token] {
    // Free the slot first: the callback may submit, which may grow the
    // slab and take this token again.
    PendingCtx& done = pending_[token - 1];
    const ResponsePacket resp = done.resp;
    const ResponseCallback cb = std::move(done.cb);
    done.cb = nullptr;
    free_ctx_.push_back(token);
    wire_.latency.add(static_cast<double>(resp.latency()));
    --outstanding_;
    --vault_depth_[vault];
    cb(resp);
  });
}

HmcStats HmcDevice::stats() const {
  HmcStats s = wire_;
  for (const Vault& v : vaults_) {
    s.bank_conflicts += v.bank_conflicts();
    s.row_activations += v.row_activations();
    s.row_hits += v.row_hits();
    s.sched_row_hit_picks += v.sched_row_hit_picks();
    s.sched_starved_serves += v.sched_starved_serves();
  }
  s.noc_hops = noc_hops_;
  s.noc_contended = noc_contended_;
  return s;
}

void HmcDevice::set_trace(obs::TraceWriter* trace) noexcept {
  trace_ = trace;
  for (Vault& v : vaults_) v.set_trace(trace);
}

desc::StatSet HmcDevice::stat_descriptors() const {
  desc::StatSet set;
  set.counter("hmcc_hmc_reads_total", "Read transactions submitted",
              [this] { return stats().reads; })
      .counter("hmcc_hmc_writes_total", "Write transactions submitted",
               [this] { return stats().writes; })
      .counter("hmcc_hmc_payload_bytes_total",
               "Data bytes carried by all packets",
               [this] { return stats().payload_bytes; })
      .counter("hmcc_hmc_transferred_bytes_total",
               "Payload plus control bytes on the wire",
               [this] { return stats().transferred_bytes; })
      .counter("hmcc_hmc_control_bytes_total", "Control bytes on the wire",
               [this] { return stats().control_bytes; })
      .counter("hmcc_hmc_bank_conflicts_total",
               "Requests that waited on a busy bank",
               [this] { return stats().bank_conflicts; })
      .counter("hmcc_hmc_row_activations_total", "DRAM row activations",
               [this] { return stats().row_activations; })
      .counter("hmcc_hmc_row_hits_total", "Accesses served from an open row",
               [this] { return stats().row_hits; })
      .counter("hmcc_hmc_noc_hops_total",
               "Quadrant hops traversed (noc=quadrant)",
               [this] { return noc_hops_; })
      .counter("hmcc_hmc_noc_contended_total",
               "NoC traversals delayed at a busy router port",
               [this] { return noc_contended_; })
      .gauge("hmcc_hmc_bandwidth_efficiency",
             "Requested / transferred bytes (paper Eq. 1)",
             [this] { return stats().bandwidth_efficiency(); })
      .gauge("hmcc_hmc_latency_cycles_avg",
             "Mean end-to-end transaction latency in cycles",
             [this] { return stats().latency.mean(); });
  for (const Vault& v : vaults_) {
    const obs::Labels labels{{"vault", std::to_string(v.index())}};
    set.counter("hmcc_hmc_vault_requests_total", "Requests served per vault",
                [&v] { return v.requests_served(); }, labels)
        .counter("hmcc_hmc_vault_bank_conflicts_total",
                 "Bank conflicts per vault",
                 [&v] { return v.bank_conflicts(); }, labels)
        .counter("hmcc_hmc_vault_row_activations_total",
                 "Row activations per vault",
                 [&v] { return v.row_activations(); }, labels)
        .counter("hmcc_hmc_vault_row_hits_total", "Row hits per vault",
                 [&v] { return v.row_hits(); }, labels)
        .counter("hmcc_hmc_vault_sched_row_hit_picks_total",
                 "Scheduler picks that targeted an open row",
                 [&v] { return v.sched_row_hit_picks(); }, labels)
        .counter("hmcc_hmc_vault_sched_starved_serves_total",
                 "Serves forced by the FR-FCFS starvation cap",
                 [&v] { return v.sched_starved_serves(); }, labels)
        .sampled_gauge(
            "hmcc_hmc_vault_queue_depth",
            "In-flight transactions per vault at sample time",
            {0, 1, 2, 4, 8, 16, 32, 64, 128},
            [this, i = v.index()] {
              return static_cast<double>(vault_depth_[i]);
            },
            labels)
        .sampled_gauge(
            "hmcc_hmc_vault_sched_queue_len",
            "Requests waiting in the vault scheduler queue at sample time",
            {0, 1, 2, 4, 8, 16, 32},
            [&v] { return static_cast<double>(v.queue_size()); }, labels);
  }
  return set;
}

}  // namespace hmcc::hmc
