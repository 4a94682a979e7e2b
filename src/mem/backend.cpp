#include "mem/backend.hpp"

#include <utility>

#include "mem/hmc_backend.hpp"
#include "mem/hybrid.hpp"

namespace hmcc::mem {

std::unique_ptr<MemoryBackend> make_backend(Kernel& kernel,
                                            const hmc::HmcConfig& hmc_cfg,
                                            const MemConfig& cfg,
                                            MemoryBackend::CompleteFn on_complete) {
  if (cfg.backend == BackendKind::kHybrid) {
    return std::make_unique<HybridBackend>(kernel, hmc_cfg, cfg,
                                           std::move(on_complete));
  }
  return std::make_unique<HmcBackend>(kernel, hmc_cfg, std::move(on_complete));
}

}  // namespace hmcc::mem
