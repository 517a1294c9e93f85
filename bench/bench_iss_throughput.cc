/**
 * @file
 * Host-side ISS throughput benchmark: simulated instructions per
 * wall-second and simulated cycles per wall-second on representative
 * ECC workloads, measured through both ISS backends — the per-step
 * decode reference loop (step()) and the superblock-threaded trace
 * backend. The reference loop is measured exactly ONCE per workload
 * and that one sample anchors the speedup. Emits one JSON line per
 * (workload, backend) to BENCH_iss.json for trajectory tracking
 * across PRs.
 *
 * Workloads:
 *  - OPF Montgomery multiplication at 160/192/256 bits, all three
 *    CPU modes (the Table I / Table II measurement kernel);
 *  - a full secp160r1 field-op run (add + sub + mul + Kaliski inv);
 *  - the secp160r1 MAC-ISE multiplication kernel (Fig. 1 datapath).
 *
 * Environment:
 *  - JAAVR_BENCH_SECONDS: min wall seconds per measurement (def 0.2)
 *  - JAAVR_ISS_BACKEND selects the backend for ordinary runs
 *    elsewhere; this bench measures both legs explicitly and
 *    restores the environment's selection afterwards.
 */

#include <chrono>
#include <cstdlib>
#include <functional>

#include "avrgen/opf_harness.hh"
#include "avrgen/secp160_harness.hh"
#include "bench/bench_util.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace jaavr;
using namespace jaavr::bench;

namespace
{

constexpr const char *kJsonPath = "BENCH_iss.json";

double
minSeconds()
{
    const char *v = std::getenv("JAAVR_BENCH_SECONDS");
    double s = v ? std::atof(v) : 0.0;
    return s > 0 ? s : 0.2;
}

/** One measurement: wall time plus simulated-work counters. */
struct Sample
{
    double wallSeconds = 0;
    uint64_t simInstructions = 0;
    uint64_t simCycles = 0;
    uint64_t ops = 0;

    double ips() const { return simInstructions / wallSeconds; }
    double cps() const { return simCycles / wallSeconds; }
};

/**
 * Repeat @p one_op (one simulated routine call on @p m) until the
 * minimum wall time is reached; counters come from the machine's own
 * ExecStats so they are exact.
 */
Sample
measure(Machine &m, const std::function<void()> &one_op)
{
    using clock = std::chrono::steady_clock;
    one_op();  // warm-up (page in flash, caches, branch predictors)

    const double min_s = minSeconds();
    uint64_t i0 = m.stats().instructions;
    uint64_t c0 = m.stats().cycles;
    Sample s;
    auto t0 = clock::now();
    do {
        one_op();
        s.ops++;
        s.wallSeconds = std::chrono::duration<double>(clock::now() - t0)
                            .count();
    } while (s.wallSeconds < min_s);
    s.simInstructions = m.stats().instructions - i0;
    s.simCycles = m.stats().cycles - c0;
    return s;
}

/**
 * Measure both backends, report, and emit one JSON line per backend.
 * Returns the superblock speedup over the reference loop (the
 * acceptance metric).
 */
double
compare(const std::string &workload, CpuMode mode, Machine &m,
        const std::function<void()> &one_op)
{
    const IssBackend initial_backend = m.backend();
    m.setBackend(IssBackend::Reference);
    Sample ref = measure(m, one_op);
    m.setBackend(IssBackend::Superblock);
    Sample sb = measure(m, one_op);
    m.setBackend(initial_backend);

    double sb_speedup = ref.ips() > 0 ? sb.ips() / ref.ips() : 0.0;
    std::printf("  %-22s %-4s  ref %7.2f  superblock %8.2f Minstr/s "
                "(x%.2f)\n",
                workload.c_str(), cpuModeName(mode), ref.ips() / 1e6,
                sb.ips() / 1e6, sb_speedup);

    for (const auto &[path, s, speedup] :
         {std::tuple<const char *, const Sample &, double>{
              "reference", ref, 1.0},
          {"superblock", sb, sb_speedup}}) {
        appendJsonLine(kJsonPath,
                       benchLine("iss_throughput")
                           .str("workload", workload)
                           .str("mode", cpuModeName(mode))
                           .str("path", path)
                           .num("wall_s", s.wallSeconds)
                           .num("ops", s.ops)
                           .num("sim_instructions", s.simInstructions)
                           .num("sim_cycles", s.simCycles)
                           .num("sim_instructions_per_sec", s.ips())
                           .num("sim_cycles_per_sec", s.cps())
                           .num("speedup_vs_reference", speedup));
    }
    return sb_speedup;
}

/** OPF Montgomery-mul workload at p = u * 2^k + 1 in @p mode. */
double
opfMulWorkload(unsigned k, CpuMode mode)
{
    OpfPrime prime = makeOpf(0xff4c, k);
    OpfField field(prime);
    OpfAvrLibrary lib(prime, mode);
    Rng rng(k * 31 + static_cast<unsigned>(mode));
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));
    std::string name = csprintf("opf_mul_%u", k + 16);
    return compare(name, mode, lib.machine(),
                   [&] { lib.mul(a, b); });
}

std::vector<uint32_t>
randomSecpWords(Rng &rng)
{
    // Top bit clear keeps the value below p = 2^160 - 2^31 - 1.
    std::vector<uint32_t> w(5);
    for (auto &word : w)
        word = rng.next32();
    w[4] &= 0x7fffffff;
    return w;
}

} // anonymous namespace

int
main()
{
    heading("ISS throughput: reference vs superblock backend");
    note(csprintf("min %.2f wall seconds per measurement "
                  "(JAAVR_BENCH_SECONDS)", minSeconds()));
    std::printf("\n");

    // The acceptance workload: OPF 256-bit Montgomery multiplication.
    // Every mode, MAC-driven ISE included, must clear the floor.
    double accept_speedup = 1e9;
    CpuMode modes[3] = {CpuMode::CA, CpuMode::FAST, CpuMode::ISE};
    for (unsigned k : {144u, 176u, 240u}) {
        for (CpuMode mode : modes) {
            double s = opfMulWorkload(k, mode);
            if (k == 240)
                accept_speedup = std::min(accept_speedup, s);
        }
        separator();
    }

    // Full secp160r1 field-op run (inversion dominates the cycles).
    {
        Secp160AvrLibrary lib(CpuMode::FAST);
        Rng rng(7);
        auto a = randomSecpWords(rng);
        auto b = randomSecpWords(rng);
        compare("secp160_field_ops", CpuMode::FAST, lib.machine(), [&] {
            lib.add(a, b);
            lib.sub(a, b);
            lib.mul(a, b);
            lib.inv(a);
        });
    }

    // The MAC-ISE multiplication kernel (Algorithm 2 triggers).
    {
        Secp160AvrLibrary lib(CpuMode::ISE);
        Rng rng(9);
        auto a = randomSecpWords(rng);
        auto b = randomSecpWords(rng);
        compare("secp160_mul_mac_ise", CpuMode::ISE, lib.machine(),
                [&] { lib.mulIse(a, b); });
    }
    separator();

    std::printf("  OPF 256-bit Montgomery mul worst-mode superblock speedup: "
                "x%.2f (acceptance floor: x5)\n", accept_speedup);
    note(csprintf("JSON lines appended to %s", kJsonPath));
    return 0;
}
