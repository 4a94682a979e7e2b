// Maker functions for every registered bench, one per translation unit in
// bench/. Explicit calls from registry.cpp (rather than static-initializer
// self-registration) keep the suite order deterministic and immune to the
// linker dropping "unreferenced" objects out of the bench library.
#pragma once

#include "suite/registry.hpp"

namespace hmcc::bench {

SuiteBench make_fig01();
SuiteBench make_fig02();
SuiteBench make_fig08();
SuiteBench make_fig09();
SuiteBench make_fig10();
SuiteBench make_fig11();
SuiteBench make_fig12();
SuiteBench make_fig13();
SuiteBench make_fig14();
SuiteBench make_fig15();
SuiteBench make_ablation_pipeline();
SuiteBench make_ablation_hmc_paging();
SuiteBench make_ablation_scheduler();
SuiteBench make_ablation_warp();
SuiteBench make_ablation_hybrid();
SuiteBench make_ablation_sorting();

}  // namespace hmcc::bench
