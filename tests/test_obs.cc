/**
 * @file
 * Observability pins for the span tracer and flight recorder
 * (DESIGN.md §15): an attached trap sink adds exactly zero simulated
 * cycles on every ISS backend, fault-like traps land in the flight
 * ring (with the slice/budget filter intact), dumps are
 * byte-identical across reruns of the same history, the span rings
 * wrap with honest drop accounting, both exporters round-trip
 * through the repo's own JSON-lines parser, and the EccService stays
 * bit-identical with a tracer attached — enabled or not — while the
 * verify-mismatch and backpressure anomalies fire flight triggers.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "avrgen/opf_harness.hh"
#include "curves/standard_curves.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "obs/flight.hh"
#include "obs/trace.hh"
#include "service/service.hh"
#include "support/json.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

void
expectSameState(const Machine &a, const Machine &b)
{
    for (unsigned i = 0; i < 32; i++)
        EXPECT_EQ(a.reg(i), b.reg(i)) << "r" << i;
    EXPECT_EQ(a.sreg(), b.sreg());
    EXPECT_EQ(a.sp(), b.sp());
    EXPECT_EQ(a.pc(), b.pc());
    EXPECT_EQ(a.stats().instructions, b.stats().instructions);
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    EXPECT_EQ(a.mac().totalMacs(), b.mac().totalMacs());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tmpPath(const std::string &leaf)
{
    return testing::TempDir() + "/" + leaf;
}

std::vector<JsonObject>
parseLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::vector<JsonObject> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonObject obj;
        std::string err;
        EXPECT_TRUE(parseJsonLine(line, obj, &err))
            << path << ": " << err << ": " << line;
        out.push_back(std::move(obj));
    }
    return out;
}

} // anonymous namespace

/*
 * The observer pinning contract, extended to the flight recorder: a
 * MachineTrapFlight attached to a machine that never traps must
 * leave both backends (reference, superblock) with
 * bit-identical results, cycles and architectural state — the same
 * discipline Vcd.AttachedButIdleAddsZeroCycles pins for the wave
 * sink. The trap funnel only runs after the run loop has already
 * stopped, so "attached" costs zero simulated cycles by
 * construction; this test keeps it that way.
 */
TEST(Obs, TrapSinkAttachedAddsZeroCyclesOnAllBackends)
{
    OpfPrime prime = makeOpf(0xff4c, 144);
    OpfField field(prime);
    Rng rng(0x0b5);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    for (IssBackend backend :
         {IssBackend::Reference, IssBackend::Superblock}) {
        for (CpuMode mode : {CpuMode::CA, CpuMode::ISE}) {
            OpfAvrLibrary base(prime, mode);
            base.machine().setBackend(backend);
            OpfRun r0 = base.mul(a, b);

            OpfAvrLibrary observed(prime, mode);
            observed.machine().setBackend(backend);
            obs::FlightRecorder flight;
            obs::MachineTrapFlight sink(flight, "iss");
            observed.machine().setTrapSink(&sink);
            OpfRun r1 = observed.mul(a, b);

            EXPECT_EQ(r1.result, r0.result)
                << issBackendName(backend) << " " << cpuModeName(mode);
            EXPECT_EQ(r1.cycles, r0.cycles);
            EXPECT_EQ(r1.instructions, r0.instructions);
            expectSameState(observed.machine(), base.machine());
            EXPECT_EQ(flight.totalRecorded(), 0u);
            EXPECT_EQ(flight.triggers(), 0u);
        }
    }
}

TEST(Obs, IllegalOpcodeTrapFiresAFlightDump)
{
    std::string path = tmpPath("jaavr_flight_trap.json");
    obs::FlightRecorder flight;
    flight.setDumpPath(path);
    obs::MachineTrapFlight sink(flight, "iss");

    Machine m(CpuMode::CA);
    m.loadProgram({0x9404}, 0); // reserved opcode word
    m.setTrapSink(&sink);
    RunResult r = m.call(0);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::IllegalOpcode);

    EXPECT_EQ(flight.triggers(), 1u);
    EXPECT_EQ(flight.source("iss")->recorded(), 1u);

    std::vector<JsonObject> lines = parseLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].at("flight").str, "header");
    EXPECT_EQ(lines[0].at("reason").str, "iss_trap");
    EXPECT_EQ(lines[0].at("events").num, 1.0);
    EXPECT_EQ(lines[1].at("source").str, "iss");
    EXPECT_EQ(lines[1].at("kind").str, "trap");
    EXPECT_NE(lines[1].at("detail").str.find("illegal"),
              std::string::npos);
    // The timestamp is the retired-cycle count — logical time.
    EXPECT_EQ(lines[1].at("t").num, double(r.cycles));
    std::remove(path.c_str());
}

TEST(Obs, BudgetSlicesAreFilteredUnlessRecordAll)
{
    Program prog = assemble("nop\nnop\nret\n", "obs_budget");
    Machine ref(CpuMode::CA);
    ref.loadProgram(prog.words, 0);
    uint64_t full = ref.call(0);

    // A budget == consumption run traps with CycleBudget; the default
    // sink treats it as a control-flow stop, not an anomaly.
    obs::FlightRecorder flight;
    obs::MachineTrapFlight sink(flight, "iss");
    Machine m(CpuMode::CA);
    m.loadProgram(prog.words, 0);
    m.setTrapSink(&sink);
    RunResult r = m.call(0, full);
    ASSERT_EQ(r.trap.kind, TrapKind::CycleBudget);
    EXPECT_EQ(flight.totalRecorded(), 0u);
    EXPECT_EQ(flight.triggers(), 0u);

    // recordAll opts the slice stops in; dumpOnTrap off keeps the
    // trigger count clean (the GDB continue loop uses this shape).
    sink.setRecordAll(true);
    sink.setDumpOnTrap(false);
    Machine m2(CpuMode::CA);
    m2.loadProgram(prog.words, 0);
    m2.setTrapSink(&sink);
    ASSERT_EQ(m2.call(0, full).trap.kind, TrapKind::CycleBudget);
    EXPECT_EQ(flight.source("iss")->recorded(), 1u);
    EXPECT_EQ(flight.triggers(), 0u);
}

TEST(Obs, FlightDumpIsByteIdenticalAcrossReruns)
{
    std::string paths[2] = {tmpPath("jaavr_flight_a.json"),
                            tmpPath("jaavr_flight_b.json")};
    for (int i = 0; i < 2; i++) {
        obs::FlightRecorder flight(4);
        flight.setDumpPath(paths[i]);
        // Same logical history both times, sources created in a
        // different order: the dump sorts by name, so order of
        // creation must not leak into the bytes.
        flight.source(i ? "zeta" : "alpha");
        flight.source(i ? "alpha" : "zeta");
        obs::FlightRecorder::Source *z = flight.source("zeta");
        obs::FlightRecorder::Source *a = flight.source("alpha");
        for (uint64_t t = 1; t <= 6; t++) // 6 > capacity 4: wraps
            z->record(t, "rekey", "epoch rolled", t, 0);
        a->record(10, "trap", "illegal opcode", 0x40, 0);
        EXPECT_TRUE(flight.trigger("test_anomaly"));
    }
    std::string a = slurp(paths[0]), b = slurp(paths[1]);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "identical histories must dump identical bytes";

    std::vector<JsonObject> lines = parseLines(paths[0]);
    ASSERT_EQ(lines.size(), 6u); // header + 1 alpha + 4 zeta
    EXPECT_EQ(lines[0].at("events").num, 5.0);
    EXPECT_EQ(lines[1].at("source").str, "alpha");
    // The zeta ring retained the last 4 of 6, seq numbers intact.
    EXPECT_EQ(lines[2].at("source").str, "zeta");
    EXPECT_EQ(lines[2].at("seq").num, 3.0);
    EXPECT_EQ(lines[5].at("seq").num, 6.0);
    std::remove(paths[0].c_str());
    std::remove(paths[1].c_str());
}

TEST(Obs, SpanRingWrapsWithHonestDropAccounting)
{
    obs::SpanRing ring("test", 8);
    EXPECT_EQ(ring.capacity(), 8u);
    for (uint64_t i = 0; i < 20; i++) {
        obs::SpanRecord r;
        r.name = "tick";
        r.spanId = i + 1;
        r.beginUs = i;
        r.endUs = i + 1;
        ring.push(r);
    }
    EXPECT_EQ(ring.recorded(), 20u);
    EXPECT_EQ(ring.dropped(), 12u);
    std::vector<obs::SpanRecord> snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    // Oldest-first, and exactly the survivors 12..19.
    for (size_t i = 0; i < snap.size(); i++)
        EXPECT_EQ(snap[i].beginUs, 12 + i);
}

TEST(Obs, JsonLinesExportRoundTripsThroughTheParser)
{
    obs::SpanTracer tracer(16);
    tracer.setEnabled(true);
    obs::SpanRing *ring = tracer.ring("worker0");

    obs::SpanRecord parent;
    parent.name = "drain";
    parent.cat = "service";
    parent.spanId = tracer.newSpanId();
    parent.beginUs = 100;
    parent.endUs = 250;
    parent.arg0Name = "batch";
    parent.arg0 = 3;
    ring->push(parent);

    obs::SpanRecord child;
    child.name = "sign";
    child.cat = "service";
    child.traceId = tracer.newTraceId();
    child.spanId = tracer.newSpanId();
    child.parentId = parent.spanId;
    child.beginUs = 120;
    child.endUs = 120; // instant
    ring->push(child);

    std::string path = tmpPath("jaavr_trace_roundtrip.json");
    std::remove(path.c_str());
    JsonLine stamp;
    stamp.str("bench", "test");
    ASSERT_TRUE(tracer.exportJsonLines(path, stamp));

    std::vector<JsonObject> lines = parseLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].at("bench").str, "test");
    EXPECT_EQ(lines[0].at("record").str, "span");
    EXPECT_EQ(lines[0].at("source").str, "worker0");
    EXPECT_EQ(lines[0].at("name").str, "drain");
    EXPECT_EQ(lines[0].at("dur_us").num, 150.0);
    EXPECT_EQ(lines[0].at("batch").num, 3.0);
    EXPECT_EQ(lines[1].at("name").str, "sign");
    EXPECT_EQ(lines[1].at("parent_id").num, double(parent.spanId));
    EXPECT_EQ(lines[1].at("dur_us").num, 0.0);
    EXPECT_EQ(lines[1].count("batch"), 0u);

    // The Chrome export carries the same spans: a complete "X" event
    // for the interval, an instant "i" for the zero-length child, and
    // one thread_name metadata record per ring — and the whole file
    // is a single well-formed JSON array.
    std::string chrome = tmpPath("jaavr_trace_chrome.json");
    ASSERT_TRUE(tracer.exportChromeTrace(chrome));
    std::string text = slurp(chrome);
    EXPECT_EQ(text.front(), '[');
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\",\"ts\":100,\"dur\":150"),
              std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\",\"ts\":120"), std::string::npos);
    // Balanced array: every line but the first starts with a comma
    // or the closing bracket — cheap structural sanity without a
    // full JSON parser.
    EXPECT_EQ(text[text.size() - 2], ']');
    std::remove(path.c_str());
    std::remove(chrome.c_str());
}

TEST(Obs, ServiceResultsBitIdenticalWithTracerAttached)
{
    const GlvCurve &c = secp160k1Curve();
    Ecdsa golden(c);
    Rng rng(77);
    const BigUInt d =
        BigUInt(1) + BigUInt::random(rng, c.order() - BigUInt(1));
    const BigUInt k =
        BigUInt(1) + BigUInt::random(rng, c.order() - BigUInt(1));
    auto expect = golden.signWithNonce("traced", d, k);
    ASSERT_TRUE(expect.has_value());

    constexpr int kReqs = 12;
    auto run = [&](obs::SpanTracer *tracer, bool enabled) {
        EccService svc([] {
            ServiceConfig cfg;
            cfg.workers = 2;
            cfg.rngSeed = 9;
            return cfg;
        }());
        if (tracer) {
            tracer->setEnabled(enabled);
            svc.setTracer(tracer);
        }
        svc.start();
        std::vector<ServiceRequest> reqs(kReqs);
        for (int i = 0; i < kReqs; i++) {
            ServiceRequest &r = reqs[i];
            r.op = ServiceOp::Sign;
            r.curve = ServiceCurve::Secp160k1;
            r.message = "traced";
            r.privateKey = d;
            r.nonce = k;
            r.shardHint = uint64_t(i);
            ASSERT_TRUE(svc.submit(&r));
        }
        for (ServiceRequest &r : reqs) {
            EccService::wait(r);
            ASSERT_EQ(r.status, ServiceStatus::Ok);
            EXPECT_EQ(r.sigOut.r, expect->r);
            EXPECT_EQ(r.sigOut.s, expect->s);
        }
        svc.stop();
    };

    run(nullptr, false);

    obs::SpanTracer idle;
    run(&idle, false);
    EXPECT_EQ(idle.totalRecorded(), 0u);

    obs::SpanTracer armed;
    run(&armed, true);
    EXPECT_GT(armed.totalRecorded(), 0u);
    size_t requestSpans = 0, drainSpans = 0;
    std::set<uint64_t> traceIds;
    for (const auto &[source, records] : armed.snapshotAll()) {
        for (const obs::SpanRecord &r : records) {
            if (std::string(r.name) == "sign") {
                requestSpans++;
                EXPECT_NE(r.traceId, 0u);
                EXPECT_NE(r.parentId, 0u);
                traceIds.insert(r.traceId);
                ASSERT_NE(r.arg0Name, nullptr);
                EXPECT_STREQ(r.arg0Name, "queue_wait_us");
            } else if (std::string(r.name) == "drain") {
                drainSpans++;
            }
        }
    }
    EXPECT_EQ(requestSpans, size_t(kReqs));
    EXPECT_EQ(traceIds.size(), size_t(kReqs)) << "trace IDs not unique";
    EXPECT_GT(drainSpans, 0u);
}

TEST(Obs, VerifyMismatchTriggersAFlightDump)
{
    const GlvCurve &c = secp160k1Curve();
    Ecdsa golden(c);
    Rng rng(31);
    const BigUInt d =
        BigUInt(1) + BigUInt::random(rng, c.order() - BigUInt(1));
    const BigUInt k =
        BigUInt(1) + BigUInt::random(rng, c.order() - BigUInt(1));
    auto sig = golden.signWithNonce("genuine", d, k);
    ASSERT_TRUE(sig.has_value());

    std::string path = tmpPath("jaavr_flight_verify.json");
    obs::FlightRecorder flight;
    flight.setDumpPath(path);

    EccService svc([] {
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.amortize = false;
        cfg.rngSeed = 3;
        return cfg;
    }());
    svc.setFlightRecorder(&flight);

    ServiceRequest r;
    r.op = ServiceOp::Verify;
    r.curve = ServiceCurve::Secp160k1;
    r.message = "genuine tampered";
    r.signature = *sig;
    r.peer = c.mulNaf(d, c.generator());
    ASSERT_TRUE(svc.trySubmit(&r));
    svc.start();
    EccService::wait(r);
    svc.stop();

    ASSERT_EQ(r.status, ServiceStatus::Ok);
    EXPECT_FALSE(r.verifyOk);
    EXPECT_EQ(flight.triggers(), 1u);

    std::vector<JsonObject> lines = parseLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].at("reason").str, "service_verify_mismatch");
    EXPECT_EQ(lines[1].at("kind").str, "verify_mismatch");
    EXPECT_EQ(lines[1].at("source").str, "worker0");
    EXPECT_NE(lines[1].at("detail").str.find("signature rejected"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Obs, BackpressureOnsetIsRecordedExactlyOnce)
{
    obs::FlightRecorder flight; // no dump path: trigger only counts
    EccService svc([] {
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.queueCapacity = 2;
        cfg.rngSeed = 4;
        return cfg;
    }());
    svc.setFlightRecorder(&flight);

    // Never started: submissions park in the shard queue until it
    // fills, then every further trySubmit is a backpressure refusal.
    std::vector<ServiceRequest> reqs(6);
    unsigned accepted = 0, refused = 0;
    for (ServiceRequest &r : reqs) {
        r.op = ServiceOp::Sign;
        r.curve = ServiceCurve::Secp160k1;
        r.message = "bp";
        r.privateKey = BigUInt(7);
        r.nonce = BigUInt(5);
        if (svc.trySubmit(&r))
            accepted++;
        else
            refused++;
    }
    EXPECT_EQ(accepted, 2u);
    EXPECT_EQ(refused, 4u);
    EXPECT_EQ(svc.backpressureRefusals(), 4u);
    // Only the onset lands in the ring; the counter keeps the tally.
    EXPECT_EQ(flight.source("submit")->recorded(), 1u);
    EXPECT_EQ(flight.triggers(), 1u);

    // Drain the parked requests so their stack storage can unwind.
    svc.start();
    for (unsigned i = 0; i < accepted; i++)
        EccService::wait(reqs[i]);
    svc.stop();
}
