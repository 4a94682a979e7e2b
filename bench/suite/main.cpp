// bench_suite entry point; the command itself is run_suite() in suite.cpp,
// which the tests drive in-process.
#include "suite/registry.hpp"

int main(int argc, char** argv) { return hmcc::bench::run_suite(argc, argv); }
