/**
 * @file
 * ladder_ise / ladder_ca: the x-only Montgomery ladder on
 * montgomeryOpfCurve(), every field operation an OpfAvrLibrary call on
 * the ISS. Per ladder step 10 mul + 8 add/sub, then one inv and one
 * mul for the affine x: 2882 ISS calls per scalar multiplication.
 * The host only does the constant-time swap bookkeeping and the
 * canonical reduction of Z before the inversion.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "avrgen/opf_harness.hh"
#include "curves/standard_curves.hh"
#include "curves/validate.hh"
#include "harness/stats.hh"
#include "harness/workloads.hh"

namespace perfbench
{

using jaavr::BigUInt;
using jaavr::CpuMode;
using jaavr::ExecStats;
using jaavr::Machine;
using jaavr::MontgomeryCurve;
using jaavr::OpfAvrLibrary;
using jaavr::OpfField;
using jaavr::OpfRun;
using W = OpfField::Words;

std::string
issEnvironmentProblem()
{
    const char *ref = std::getenv("JAAVR_ISS_REFERENCE");
    if (ref && *ref && *ref != '0')
        return "JAAVR_ISS_REFERENCE forces the reference loop";
    const char *be = std::getenv("JAAVR_ISS_BACKEND");
    if (be && *be && std::strcmp(be, "superblock") != 0)
        return std::string("JAAVR_ISS_BACKEND=") + be +
               " selects a non-default backend";
    return "";
}

namespace
{

constexpr unsigned kScalarBits = 160;
/**
 * Simulated statistics are taken over this fixed prefix of the seeded
 * input stream, so they are exact per seed whatever the host speed.
 */
constexpr size_t kSimPrefix = 16;
constexpr size_t kWarmup = 2;
/** Table III, Montgomery-ladder rows (cycles per scalar mult). */
constexpr double kPaperCyclesCa = 5545078;
constexpr double kPaperCyclesIse = 1299598;

enum Op
{
    Mul,
    Add,
    Sub,
    Inv,
    kNumOps
};
constexpr const char *kOpName[kNumOps] = {"mul", "add", "sub", "inv"};

/**
 * Attaching any observer reroutes Machine::run off the superblock
 * backend, so a run with one would measure another program.
 */
void
requirePlainMachine(const Machine &m)
{
    if (m.backend() != jaavr::IssBackend::Superblock || m.forceReference ||
        m.trace || m.profiler() || m.faultInjector() || m.debugHook() ||
        m.waveSink() || m.leakSink())
        throw std::runtime_error(
            "ISS is not on the plain superblock backend");
}

uint64_t
trapTotal(const ExecStats &st)
{
    uint64_t n = 0;
    for (uint64_t t : st.trapCount)
        n += t;
    return n;
}

struct LadderInput
{
    BigUInt k;
    BigUInt x;
};

/** Seeded scalars in [2^159, 2^160) and valid base x-coordinates. */
class InputStream
{
  public:
    InputStream(uint64_t seed, const MontgomeryCurve &curve)
        : rng(seed), mc(curve)
    {}

    LadderInput next()
    {
        LadderInput in;
        in.k = BigUInt::randomBits(rng, kScalarBits - 1) +
               BigUInt::powerOfTwo(kScalarBits - 1);
        do
            in.x = mc.field().random(rng);
        while (!jaavr::validateX(mc, in.x));
        return in;
    }

  private:
    jaavr::Rng rng;
    const MontgomeryCurve &mc;
};

struct SmultSample
{
    double hostMs = 0; ///< whole scalar mult, host time
    double callMs = 0; ///< inside ISS calls (traced runs only)
    uint64_t cycles = 0;
    uint64_t instr = 0;
    uint64_t stalls = 0;
};

/** Per-routine span totals of a traced segment. */
struct OpSpans
{
    uint64_t prefixCalls = 0;
    uint64_t prefixCycles = 0;
    uint64_t prefixInstr = 0;
    uint64_t instr = 0;
    double ns = 0;
    std::vector<double> callNs;
};

class IssLadder
{
  public:
    IssLadder(OpfAvrLibrary &library, const MontgomeryCurve &mc)
        : lib(library), m(library.machine()), fm(library.prime()),
          a24(fm.toMont(BigUInt(mc.a24()))), one(fm.toMont(BigUInt(1))),
          zero(fm.words(), 0)
    {}

    /**
     * k * P for the affine x of P; nullopt when the ISS trapped or the
     * result is the point at infinity. @p inPrefix marks the scalar
     * mults whose simulated statistics are reported.
     */
    template <bool Traced>
    std::optional<BigUInt> run(const LadderInput &in, SmultSample &s,
                               bool inPrefix);

    std::array<OpSpans, kNumOps> spans;
    CycleLedger ledger;

  private:
    template <bool Traced>
    W call(Op op, const W &a, const W &b);

    OpfAvrLibrary &lib;
    Machine &m;
    OpfField fm;
    W a24, one, zero;
    bool trapped = false;
    bool prefix = false;
    double callNs = 0;
};

template <bool Traced>
W
IssLadder::call(Op op, const W &a, const W &b)
{
    Clock::time_point t0;
    if constexpr (Traced)
        t0 = Clock::now();
    OpfRun r = op == Mul   ? lib.mul(a, b)
               : op == Add ? lib.add(a, b)
               : op == Sub ? lib.sub(a, b)
                           : lib.inv(a);
    if constexpr (Traced) {
        double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        OpSpans &sp = spans[op];
        sp.callNs.push_back(ns);
        sp.ns += ns;
        sp.instr += r.instructions;
        if (prefix) {
            sp.prefixCalls++;
            sp.prefixCycles += r.cycles;
            sp.prefixInstr += r.instructions;
        }
        ledger.addCall(r.cycles);
        callNs += ns;
    }
    if (r.trap)
        trapped = true;
    return std::move(r.result);
}

template <bool Traced>
std::optional<BigUInt>
IssLadder::run(const LadderInput &in, SmultSample &s, bool inPrefix)
{
    prefix = inPrefix;
    trapped = false;
    callNs = 0;
    const ExecStats &st = m.stats();
    uint64_t c0 = st.cycles, i0 = st.instructions, n0 = st.macStallNops;
    Clock::time_point start = Clock::now();

    W x1 = fm.toMont(in.x);
    W x2 = one, z2 = zero, x3 = x1, z3 = one;
    unsigned swap = 0;
    for (unsigned i = kScalarBits; i-- > 0;) {
        unsigned bit = in.k.bit(i) ? 1 : 0;
        if (swap ^ bit) {
            std::swap(x2, x3);
            std::swap(z2, z3);
        }
        swap = bit;

        W a = call<Traced>(Add, x2, z2);
        W aa = call<Traced>(Mul, a, a);
        W b = call<Traced>(Sub, x2, z2);
        W bb = call<Traced>(Mul, b, b);
        W e = call<Traced>(Sub, aa, bb);
        W c = call<Traced>(Add, x3, z3);
        W d = call<Traced>(Sub, x3, z3);
        W da = call<Traced>(Mul, d, a);
        W cb = call<Traced>(Mul, c, b);
        W t0 = call<Traced>(Add, da, cb);
        x3 = call<Traced>(Mul, t0, t0);
        W t1 = call<Traced>(Sub, da, cb);
        W t2 = call<Traced>(Mul, t1, t1);
        z3 = call<Traced>(Mul, x1, t2);
        x2 = call<Traced>(Mul, aa, bb);
        W t3 = call<Traced>(Mul, a24, e);
        W t4 = call<Traced>(Add, bb, t3);
        z2 = call<Traced>(Mul, e, t4);
    }
    if (swap) {
        std::swap(x2, x3);
        std::swap(z2, z3);
    }

    // Z is in the Montgomery domain (Z R); the ISS inverse returns
    // (Z R)^-1 2^160 = Z^-1, and the Montgomery product with X R
    // leaves X / Z in the plain domain.
    std::optional<BigUInt> out;
    BigUInt zc = fm.canonical(z2);
    if (!zc.isZero()) {
        W zinv = call<Traced>(Inv, fm.fromBig(zc), zero);
        out = fm.canonical(call<Traced>(Mul, x2, zinv));
    }

    s.hostMs =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    s.callMs = callNs / 1e6;
    s.cycles = st.cycles - c0;
    s.instr = st.instructions - i0;
    s.stalls = st.macStallNops - n0;
    if constexpr (Traced)
        ledger.addRegion(s.cycles);
    if (trapped)
        return std::nullopt;
    return out;
}

struct Segment
{
    std::vector<SmultSample> samples; ///< measured scalar mults
    std::vector<std::pair<LadderInput, std::optional<BigUInt>>> results;
};

/**
 * Warm-up scalar mults, then measured ones until @p seconds have
 * passed and at least @p min_samples were taken. The input stream is
 * restarted from @p seed, so two segments see identical inputs.
 */
template <bool Traced>
Segment
runSegment(IssLadder &lad, const MontgomeryCurve &mc, uint64_t seed,
           double seconds, size_t min_samples)
{
    InputStream inputs(seed, mc);
    Segment seg;
    auto once = [&](bool measured) {
        LadderInput in = inputs.next();
        SmultSample s;
        bool inPrefix = measured && seg.samples.size() < kSimPrefix;
        std::optional<BigUInt> r = lad.run<Traced>(in, s, inPrefix);
        if (measured)
            seg.samples.push_back(s);
        seg.results.emplace_back(std::move(in), std::move(r));
    };
    for (size_t i = 0; i < kWarmup; i++)
        once(false);
    Clock::time_point deadline = Clock::now() + toDuration(seconds);
    while (Clock::now() < deadline || seg.samples.size() < min_samples)
        once(true);
    return seg;
}

/** Compare every result with the host golden model's ladder. */
void
checkResults(const Segment &seg, const MontgomeryCurve &mc, Report &rep)
{
    for (const auto &[in, got] : seg.results) {
        std::optional<BigUInt> want = mc.ladder(in.k, in.x);
        if (!got || !want) {
            rep.attempt(false);
            continue;
        }
        bool ok = *got == *want;
        if (!ok)
            rep.mismatch("ISS ladder x differs from MontgomeryCurve::ladder "
                         "for k=" + in.k.toHex());
        rep.attempt(ok);
    }
}

std::vector<double>
hostMs(const Segment &seg)
{
    std::vector<double> v;
    for (const SmultSample &s : seg.samples)
        v.push_back(s.hostMs);
    return v;
}

/** Scalar mults per second of scalar-mult host time. */
double
opsPerSecond(const Segment &seg)
{
    double totalMs = 0;
    for (const SmultSample &s : seg.samples)
        totalMs += s.hostMs;
    return double(seg.samples.size()) / (totalMs / 1e3);
}

struct PrefixTotals
{
    uint64_t cycles = 0, instr = 0, stalls = 0;
};

PrefixTotals
prefixTotals(const Segment &seg)
{
    PrefixTotals t;
    for (size_t i = 0; i < kSimPrefix; i++) {
        t.cycles += seg.samples[i].cycles;
        t.instr += seg.samples[i].instr;
        t.stalls += seg.samples[i].stalls;
    }
    return t;
}

} // namespace

void
runLadder(const RunOptions &opt, CpuMode mode, Report &rep)
{
    // Golden-model singletons are built before anything is timed.
    const jaavr::OpfPrime &prime = jaavr::paperOpfPrime();
    const MontgomeryCurve &mc = jaavr::montgomeryOpfCurve();
    const char *modeName = jaavr::cpuModeName(mode);

    std::vector<double> setupS;
    auto setupOnce = [&] {
        Clock::time_point t0 = Clock::now();
        OpfAvrLibrary probe(prime, mode);
        return secondsBetween(t0, Clock::now());
    };
    if (!opt.trace)
        setupPhase(setupOnce, setupS);
    OpfAvrLibrary lib(prime, mode);
    requirePlainMachine(lib.machine());
    IssLadder lad(lib, mc);

    if (!opt.trace) {
        Segment seg = runSegment<false>(lad, mc, opt.seed, opt.seconds,
                                        std::max(kSimPrefix,
                                                 minSamplesFor(95)));
        requirePlainMachine(lib.machine());
        setupPhase(setupOnce, setupS);
        checkResults(seg, mc, rep);
        std::vector<double> ms = hostMs(seg);
        Summary lat = summarize(ms);
        PrefixTotals pt = prefixTotals(seg);
        rep.set("setup_s", median(setupS));
        rep.set("latency_ms.p95", windowedP95(ms));
        rep.set("peak_rss_mb", peakRssMb());
        std::printf("ladder %s: n=%zu smult_host_ms p50=%.4f p95=%.4f "
                    "ops_per_s=%.4f | sim (first %zu, exact per seed): "
                    "smult_sim_cycles=%.1f instr=%.1f mac_stall_nops=%.1f\n",
                    modeName, lat.n, lat.p50, lat.p95, opsPerSecond(seg),
                    kSimPrefix,
                    double(pt.cycles) / kSimPrefix,
                    double(pt.instr) / kSimPrefix,
                    double(pt.stalls) / kSimPrefix);
        return;
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // half with a span around every ISS call.
    size_t minPrefix = kSimPrefix;
    Segment plain =
        runSegment<false>(lad, mc, opt.seed, opt.seconds / 2, minPrefix);
    Segment traced =
        runSegment<true>(lad, mc, opt.seed, opt.seconds / 2, minPrefix);
    requirePlainMachine(lib.machine());
    checkResults(plain, mc, rep);
    checkResults(traced, mc, rep);

    for (size_t i = 0; i < kSimPrefix; i++) {
        const SmultSample &a = plain.samples[i], &b = traced.samples[i];
        if (a.cycles != b.cycles || a.instr != b.instr ||
            a.stalls != b.stalls)
            rep.mismatch("tracing changed the simulated statistics");
    }

    PrefixTotals pt = prefixTotals(traced);
    double smultCycles = double(pt.cycles) / kSimPrefix;
    double totalNs = 0;
    uint64_t totalInstr = 0;
    std::printf("ladder %s sim (first %zu, exact per seed): "
                "smult_sim_cycles=%.1f", modeName, kSimPrefix, smultCycles);
    for (int op = 0; op < kNumOps; op++) {
        const OpSpans &sp = lad.spans[op];
        std::string p = std::string("avrgen.") + kOpName[op];
        double perCall = sp.prefixCalls ? 1.0 / double(sp.prefixCalls) : 0;
        rep.set(p + ".calls_per_smult",
                double(sp.prefixCalls) / kSimPrefix);
        rep.set(p + ".host_ns", median(sp.callNs));
        rep.set(p + ".sim_cycles", double(sp.prefixCycles) * perCall);
        rep.set(p + ".sim_instr", double(sp.prefixInstr) * perCall);
        rep.set(p + ".ns_per_sim_instr",
                sp.instr ? sp.ns / double(sp.instr) : 0);
        totalNs += sp.ns;
        totalInstr += sp.instr;
        std::printf(" %s.sim_cycles=%.1f", kOpName[op],
                    double(sp.prefixCycles) * perCall);
    }
    std::printf(" mac_stall_nops=%.1f ledger=%llu/%llu\n",
                double(pt.stalls) / kSimPrefix,
                static_cast<unsigned long long>(lad.ledger.callCycles),
                static_cast<unsigned long long>(lad.ledger.machineCycles));

    std::vector<double> glue;
    for (const SmultSample &s : traced.samples)
        glue.push_back(s.hostMs - s.callMs);
    double plainP50 = median(hostMs(plain));
    double tracedP50 = median(hostMs(traced));
    double paper = mode == CpuMode::CA ? kPaperCyclesCa : kPaperCyclesIse;

    rep.set("avr.sim_minstr_per_s",
            totalNs > 0 ? double(totalInstr) / totalNs * 1e3 : 0);
    rep.set("avr.cycles_per_inst", double(pt.cycles) / double(pt.instr));
    rep.set("avr.mac_stall_nops_per_smult", double(pt.stalls) / kSimPrefix);
    rep.set("avr.traps", double(trapTotal(lib.machine().stats())));
    rep.set("avr.smult_vs_paper", smultCycles / paper);
    rep.set("ladder.smult_sim_cycles", smultCycles);
    rep.set("ladder.cycle_ledger_ratio", lad.ledger.ratio());
    rep.set("ladder.glue_ms", median(glue));
    rep.set("untraced.latency_ms.p50", plainP50);
    rep.set("untraced.ops_per_s", opsPerSecond(plain));
    rep.set("obs.trace_overhead_pct",
            (tracedP50 - plainP50) / plainP50 * 100.0);
    rep.set("failed_ratio", rep.failedRatio());
}

} // namespace perfbench
