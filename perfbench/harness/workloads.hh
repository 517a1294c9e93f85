/**
 * @file
 * The four workloads (see perfbench/README.md for why each exists).
 * Each fills a Report: end-to-end metrics when untraced, per-layer
 * metrics when traced.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "avr/timing.hh"
#include "harness/report.hh"

namespace perfbench
{

struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/**
 * Refuse simulator configurations that would measure another program
 * than the default superblock backend: returns an empty string when
 * the environment leaves the ISS on its default backend, else why not.
 */
std::string issEnvironmentProblem();

/** ladder_ise / ladder_ca: the ISS Montgomery ladder in @p mode. */
void runLadder(const RunOptions &opt, jaavr::CpuMode mode, Report &rep);

/** service_sign_burst: closed loop, 64 secp160r1 signs in flight. */
void runSignBurst(const RunOptions &opt, Report &rep);

/** service_mixed_paced: open loop at a fixed rate, six curves. */
void runMixedPaced(const RunOptions &opt, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
