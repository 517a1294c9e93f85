/**
 * @file
 * Deterministic network chaos campaign (DESIGN.md, "Network
 * robustness layer"). A star of sensor nodes streams ECDSA-signed
 * telemetry to a gateway over LossyLinks while the campaign sweeps
 * impairment levels (drop/duplicate/reorder/bit-flip) and an active
 * adversary injects CRC-valid forged Data frames (live epoch, bogus
 * MAC) and forged high-epoch Hello frames onto every uplink.
 *
 * Everything runs in simulated time from fixed seeds, so a run is
 * byte-identical and the campaign can make hard assertions instead
 * of statistical ones:
 *
 *  - zero accepted forgeries: no payload the adversary injected may
 *    ever surface from a node's telemetry handler;
 *  - zero silent corruption: every accepted payload must be
 *    byte-identical to one a sensor queued (checked against a
 *    sender-side ledger). Duplicates are permitted only as the
 *    documented at-least-once window across re-keys;
 *  - zero silent loss: every queued payload is accepted at the
 *    gateway before the per-level simulated-time cap;
 *  - bounded degradation: the harshest level's goodput must stay
 *    within kMaxSlowdown of the clean level's.
 *
 * Results go to BENCH_network.json (rows pinned in
 * bench/baselines.json gate via jaavr-report) and a labeled metrics
 * snapshot to METRICS_network.json.
 *
 * Observability (src/obs/): every level runs with a span tracer and
 * flight recorder attached to all nodes. Telemetry trace IDs follow
 * each payload through session send/retransmit/ack in simulated
 * time; per-level span summaries (and the raw spans) land in
 * TRACE_network.json, the last level's spans in
 * TRACE_network_chrome.json. The adversary fires one volley of
 * back-to-back forged Data frames per level so the gateway's
 * forgery-rejection streak deterministically trips the re-key
 * ladder and dumps FLIGHT_network.json (byte-identical per seed —
 * all flight timestamps are simulated time).
 *
 * Flags: --smoke (CI-sized sweep), --seed <n>.
 */

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "curves/standard_curves.hh"
#include "net/testbed.hh"
#include "obs/flight.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/sha256.hh"

using namespace jaavr;
using namespace jaavr::bench;
using namespace jaavr::net;

namespace
{

constexpr const char *kJsonPath = "BENCH_network.json";
constexpr const char *kMetricsPath = "METRICS_network.json";
constexpr const char *kTracePath = "TRACE_network.json";
constexpr const char *kChromePath = "TRACE_network_chrome.json";
constexpr const char *kFlightPath = "FLIGHT_network.json";

/** Back-to-back forged Data frames per per-level volley: enough to
 *  trip the consecutive-reject re-key ladder even when the lossiest
 *  link eats half of them. */
constexpr int kForgedVolley = 6;

/** Worst-level goodput may not fall below clean/kMaxSlowdown. */
constexpr double kMaxSlowdown = 25.0;

struct LevelSpec
{
    const char *name;
    uint32_t dropPermil;
    uint32_t flipPermil;
    uint32_t dupPermil;
    uint32_t reorderPermil;
};

constexpr LevelSpec kLevels[] = {
    {"clean", 0, 0, 0, 0},
    {"mild", 100, 10, 50, 50},
    {"harsh", 250, 30, 100, 100},
    {"brutal", 350, 60, 150, 150},
};

struct LevelResult
{
    uint64_t queued = 0;
    uint64_t acceptedTotal = 0;
    uint64_t acceptedUnique = 0;
    uint64_t forgedInjected = 0;
    uint64_t forgedAccepted = 0;
    uint64_t corruptedAccepted = 0;
    uint64_t rekeys = 0;
    uint64_t quarantineEvents = 0;
    uint64_t handshakeFailures = 0;
    uint64_t sessionAuthRejects = 0;
    uint64_t retransmits = 0;
    uint64_t badFrames = 0;
    SimTime drainUs = 0;
    bool drained = false;

    // Trace/flight summary (deterministic: simulated time only).
    uint64_t telemetrySpans = 0;   ///< queue -> delivery-confirmed
    uint64_t sendAckSpans = 0;
    uint64_t retransmitSpans = 0;
    uint64_t rekeyEvents = 0;      ///< traced "rekey" instants
    double telemetryP99Us = 0;     ///< p99 telemetry span, sim µs
    uint64_t flightTriggers = 0;
    uint64_t flightEvents = 0;

    double
    goodputPerSec() const
    {
        return drainUs ? double(queued) * 1e6 / double(drainUs) : 0;
    }
};

/**
 * What a wire adversary can always produce: a CRC-valid frame, and
 * for handshake types the (public) unkeyed integrity tag. Mirrors
 * the format documented in net/node.cc.
 */
std::vector<uint8_t>
forgeFrame(const Frame &f, bool unkeyed_tag)
{
    Frame sealed = f;
    if (unkeyed_tag) {
        std::string msg("jaavr-net-unkeyed");
        msg.push_back(char(uint8_t(f.type)));
        for (uint32_t v : {f.session, f.seq, f.ack})
            for (int i = 0; i < 4; i++)
                msg.push_back(char(uint8_t(v >> (8 * i))));
        msg.append(reinterpret_cast<const char *>(f.payload.data()),
                   f.payload.size());
        auto digest = Sha256::digest(msg);
        sealed.payload.insert(sealed.payload.end(), digest.begin(),
                              digest.begin() + FrameAuth::kTagSize);
    } else {
        sealed.payload.insert(sealed.payload.end(),
                              FrameAuth::kTagSize, 0xee);
    }
    return encodeFrame(sealed);
}

/** One deterministic telemetry payload, unique per (sensor, seq). */
std::vector<uint8_t>
ledgerPayload(size_t sensor, uint32_t seq)
{
    std::vector<uint8_t> p;
    p.push_back(uint8_t(0x10 + sensor));
    for (int i = 0; i < 4; i++)
        p.push_back(uint8_t(seq >> (8 * i)));
    p.insert(p.end(), 16, 0x5a);
    return p;
}

LevelResult
runLevel(const LevelSpec &level, size_t sensors, uint32_t msgs,
         uint64_t seed, const WeierstrassCurve &curve,
         const Ecdsa &dsa)
{
    // Declared before the testbed so the nodes (which hold raw
    // pointers into both) are destroyed first. One fresh tracer and
    // recorder per level keeps the per-level summaries exact; the
    // recorder dumps every level to the same path, so the file holds
    // the last (harshest) level's postmortem.
    obs::SpanTracer tracer;
    tracer.setEnabled(true);
    obs::FlightRecorder flight;
    flight.setDumpPath(kFlightPath);

    Testbed tb(curve, dsa);

    NodeConfig gw;
    gw.name = "gw";
    gw.seed = seed * 1000 + 1;
    tb.addNode(gw);

    std::vector<std::string> names;
    for (size_t s = 0; s < sensors; s++) {
        NodeConfig nc;
        nc.name = "s" + std::to_string(s);
        nc.seed = seed * 1000 + 2 + s;
        names.push_back(nc.name);
        tb.addNode(nc);

        LinkConfig lc;
        lc.dropPermil = level.dropPermil;
        lc.flipPermil = level.flipPermil;
        lc.dupPermil = level.dupPermil;
        lc.reorderPermil = level.reorderPermil;
        lc.seed = seed * 100 + 7 * (s + 1);
        tb.connect(nc.name, "gw", lc);
    }

    tb.node("gw").setTracer(&tracer);
    tb.node("gw").setFlightRecorder(&flight);
    for (const std::string &n : names) {
        tb.node(n).setTracer(&tracer);
        tb.node(n).setFlightRecorder(&flight);
    }

    // Sender-side ledger: payload bytes -> times accepted at gw.
    std::map<std::vector<uint8_t>, uint64_t> ledger;
    LevelResult res;
    tb.node("gw").setTelemetryHandler(
        [&](const std::string &, const std::vector<uint8_t> &app,
            SimTime) {
            res.acceptedTotal++;
            auto it = ledger.find(app);
            if (it == ledger.end()) {
                if (!app.empty() && app[0] == 0xee)
                    res.forgedAccepted++;
                else
                    res.corruptedAccepted++;
                return;
            }
            if (it->second++ == 0)
                res.acceptedUnique++;
        });

    // Submission phase: one payload per sensor every 5 ms, one
    // forged Data frame per uplink every 25 ms, one forged Hello
    // every 100 ms. The adversary reads the victim's live epoch —
    // the strongest wire position short of holding the key.
    const SimTime kTick = 5'000;
    for (uint32_t i = 0; i < msgs; i++) {
        for (size_t s = 0; s < sensors; s++) {
            std::vector<uint8_t> p = ledgerPayload(s, i);
            if (tb.node(names[s]).sendTelemetry("gw", p, tb.now()))
                ledger.emplace(std::move(p), 0);
        }
        if (i % 5 == 4) {
            for (size_t s = 0; s < sensors; s++) {
                Frame forged;
                forged.type = FrameType::Data;
                forged.session = tb.node("gw").peerEpoch(names[s]);
                forged.seq = 50'000 + i;
                forged.payload.assign(24, 0xee);
                tb.edge(names[s], "gw")
                    .forward.transmit(forgeFrame(forged, false),
                                      tb.now());
                res.forgedInjected++;
            }
        }
        if (i % 20 == 19) {
            for (size_t s = 0; s < sensors; s++) {
                Frame hello;
                hello.type = FrameType::Hello;
                hello.session =
                    tb.node("gw").peerEpoch(names[s]) + 40;
                hello.payload.assign(84, 0xee);
                tb.edge(names[s], "gw")
                    .forward.transmit(forgeFrame(hello, true),
                                      tb.now());
                res.forgedInjected++;
            }
        }
        // Mid-campaign volley: back-to-back forged Data frames on one
        // uplink, so the gateway sees consecutive MAC rejects with no
        // genuine frame in between — the forgery-rejection streak
        // deterministically reaches the re-key threshold and fires
        // the flight recorder's "net_forgery_streak" dump.
        if (i == msgs / 2) {
            for (int v = 0; v < kForgedVolley; v++) {
                Frame forged;
                forged.type = FrameType::Data;
                forged.session = tb.node("gw").peerEpoch(names[0]);
                forged.seq = 60'000 + uint32_t(v);
                forged.payload.assign(24, 0xee);
                tb.edge(names[0], "gw")
                    .forward.transmit(forgeFrame(forged, false),
                                      tb.now());
                res.forgedInjected++;
            }
        }
        tb.run(tb.now() + kTick);
    }
    res.queued = ledger.size();

    // Drain phase: adversary quiet, impairments still on. Everything
    // queued must surface before the cap.
    const SimTime kDrainCap = tb.now() + 120'000'000;
    while (res.acceptedUnique < res.queued && tb.now() < kDrainCap)
        tb.run(tb.now() + 10'000);
    res.drained = res.acceptedUnique == res.queued;
    res.drainUs = tb.now();

    // Settle phase (after the goodput clock stops): the drain loop
    // ends at gateway *acceptance*, but a telemetry span closes on
    // the sender-side ack. Run on until every sensor's backlog has
    // cleared so each payload's delivery-confirmed span exists.
    const SimTime kSettleCap = tb.now() + 60'000'000;
    auto backlog = [&] {
        size_t b = 0;
        for (const std::string &n : names)
            b += tb.node(n).peerBacklog("gw");
        return b;
    };
    while (backlog() && tb.now() < kSettleCap)
        tb.run(tb.now() + 10'000);

    for (size_t s = 0; s < sensors; s++) {
        const NodeStats &ns = tb.node(names[s]).stats();
        res.rekeys += ns.rekeys;
        res.quarantineEvents += ns.quarantineEvents;
        res.handshakeFailures += ns.handshakeFailures;
        res.retransmits +=
            tb.node(names[s]).sessionStats("gw").retransmits;
        res.badFrames += tb.node(names[s]).sessionStats("gw").badFrames;
    }
    const NodeStats &gs = tb.node("gw").stats();
    res.rekeys += gs.rekeys;
    res.quarantineEvents += gs.quarantineEvents;
    res.handshakeFailures += gs.handshakeFailures;
    for (size_t s = 0; s < sensors; s++) {
        res.retransmits +=
            tb.node("gw").sessionStats(names[s]).retransmits;
        res.badFrames +=
            tb.node("gw").sessionStats(names[s]).badFrames;
        res.sessionAuthRejects +=
            tb.node("gw").sessionStats(names[s]).authRejected;
    }

    // Labeled metrics snapshot for monitor-style consumers.
    MetricsRegistry reg;
    tb.publishMetrics(reg);
    JsonLine stamp = benchLine("network_chaos");
    stamp.str("profile", level.name);
    reg.writeJsonLines(kMetricsPath, stamp);

    // Trace summary: spans by name across all node rings, plus the
    // p99 telemetry latency in simulated µs — deterministic per
    // seed, so the pinned ratio rows can use tight thresholds.
    tracer.setEnabled(false);
    Histogram telemetryDurs;
    for (const auto &[source, recs] : tracer.snapshotAll()) {
        for (const obs::SpanRecord &sp : recs) {
            if (!std::strcmp(sp.name, "telemetry")) {
                res.telemetrySpans++;
                telemetryDurs.observe(double(sp.durUs()));
            } else if (!std::strcmp(sp.name, "send_ack")) {
                res.sendAckSpans++;
            } else if (!std::strcmp(sp.name, "retransmit")) {
                res.retransmitSpans++;
            } else if (!std::strcmp(sp.name, "rekey")) {
                res.rekeyEvents++;
            }
        }
    }
    res.telemetryP99Us = telemetryDurs.percentile(99);
    res.flightTriggers = flight.triggers();
    res.flightEvents = flight.totalRecorded();
    if (!tracer.exportJsonLines(kTracePath, stamp) ||
        !tracer.exportChromeTrace(kChromePath))
        fatal("cannot write the trace exports");
    return res;
}

void
emitLevel(const LevelSpec &level, const LevelResult &r, uint64_t seed)
{
    double deliveredRatio =
        r.queued ? double(r.acceptedUnique) / double(r.queued) : 0;
    double forgedRejectedRatio =
        r.forgedInjected
            ? double(r.forgedInjected - r.forgedAccepted) /
                  double(r.forgedInjected)
            : 1.0;
    JsonLine line = benchLine("network_chaos");
    line.str("profile", level.name)
        .num("seed", seed)
        .num("drop_permil", uint64_t(level.dropPermil))
        .num("flip_permil", uint64_t(level.flipPermil))
        .num("queued", r.queued)
        .num("accepted_total", r.acceptedTotal)
        .num("accepted_unique", r.acceptedUnique)
        .num("delivered_ratio", deliveredRatio)
        .num("forged_injected", r.forgedInjected)
        .num("forged_accepted", r.forgedAccepted)
        .num("forged_rejected_ratio", forgedRejectedRatio)
        .num("corrupted_accepted", r.corruptedAccepted)
        .num("rekeys", r.rekeys)
        .num("quarantine_events", r.quarantineEvents)
        .num("handshake_failures", r.handshakeFailures)
        .num("session_auth_rejects", r.sessionAuthRejects)
        .num("retransmits", r.retransmits)
        .num("bad_frames", r.badFrames)
        .num("drain_us", r.drainUs)
        .num("goodput_msgs_per_s", r.goodputPerSec());
    appendJsonLine(kJsonPath, line);

    // Per-level trace summary: every queued payload must have at
    // least one delivery-confirmed telemetry span (re-keys can add
    // re-sends, so the ratio may exceed 1, never undercut it).
    double tracedRatio =
        r.queued ? double(r.telemetrySpans) / double(r.queued) : 0;
    JsonLine trace = benchLine("network_chaos");
    trace.str("profile", level.name)
        .str("record", "trace_summary")
        .num("seed", seed)
        .num("telemetry_spans", r.telemetrySpans)
        .num("traced_telemetry_ratio", tracedRatio)
        .num("telemetry_p99_us", r.telemetryP99Us)
        .num("send_ack_spans", r.sendAckSpans)
        .num("retransmit_spans", r.retransmitSpans)
        .num("rekey_events", r.rekeyEvents)
        .num("flight_triggers", r.flightTriggers)
        .num("flight_events", r.flightEvents);
    appendJsonLine(kTracePath, trace);

    std::printf("  %-8s queued %4llu  accepted %4llu (+%llu dup)  "
                "forged %llu/%llu rej  rekeys %llu  quar %llu  "
                "retrans %llu  drain %.2fs  goodput %.1f msg/s\n",
                level.name, (unsigned long long)r.queued,
                (unsigned long long)r.acceptedUnique,
                (unsigned long long)(r.acceptedTotal -
                                     r.acceptedUnique -
                                     r.forgedAccepted -
                                     r.corruptedAccepted),
                (unsigned long long)(r.forgedInjected -
                                     r.forgedAccepted),
                (unsigned long long)r.forgedInjected,
                (unsigned long long)r.rekeys,
                (unsigned long long)r.quarantineEvents,
                (unsigned long long)r.retransmits,
                double(r.drainUs) / 1e6, r.goodputPerSec());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    uint64_t seed = 20260808;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = std::strtoull(argv[++i], nullptr, 0);
        else
            fatal("unknown argument: %s", argv[i]);
    }

    const size_t sensors = smoke ? 2 : 3;
    const uint32_t msgs = smoke ? 10 : 30;

    WeierstrassCurve curve = secp160r1Curve();
    CurveGenerator gen = secp160r1Generator();
    Ecdsa dsa(curve, gen.g, gen.order);

    heading("Network chaos campaign (secp160r1 sessions)");
    note(csprintf("seed %llu, %zu sensors x %u msgs per level%s",
                  (unsigned long long)seed, sensors, msgs,
                  smoke ? " (smoke)" : ""));

    size_t failures = 0;
    double cleanGoodput = 0, worstGoodput = 0;
    for (const LevelSpec &level : kLevels) {
        if (smoke && std::strcmp(level.name, "clean") != 0 &&
            std::strcmp(level.name, "harsh") != 0)
            continue;
        LevelResult r =
            runLevel(level, sensors, msgs, seed, curve, dsa);
        emitLevel(level, r, seed);
        if (std::strcmp(level.name, "clean") == 0)
            cleanGoodput = r.goodputPerSec();
        worstGoodput = r.goodputPerSec();

        if (r.forgedAccepted) {
            std::fprintf(stderr,
                         "FAIL %s: %llu forged payloads accepted\n",
                         level.name,
                         (unsigned long long)r.forgedAccepted);
            failures++;
        }
        if (r.corruptedAccepted) {
            std::fprintf(stderr,
                         "FAIL %s: %llu corrupted payloads "
                         "accepted\n",
                         level.name,
                         (unsigned long long)r.corruptedAccepted);
            failures++;
        }
        if (!r.drained) {
            std::fprintf(stderr,
                         "FAIL %s: only %llu/%llu payloads "
                         "delivered before the simulated cap\n",
                         level.name,
                         (unsigned long long)r.acceptedUnique,
                         (unsigned long long)r.queued);
            failures++;
        }
        if (r.flightTriggers == 0) {
            std::fprintf(stderr,
                         "FAIL %s: the forged volley never tripped "
                         "the flight recorder\n",
                         level.name);
            failures++;
        }
        if (r.queued && r.telemetrySpans < r.queued) {
            std::fprintf(stderr,
                         "FAIL %s: only %llu telemetry spans for "
                         "%llu queued payloads\n",
                         level.name,
                         (unsigned long long)r.telemetrySpans,
                         (unsigned long long)r.queued);
            failures++;
        }
    }

    // Bounded degradation: chaos may slow the star down, not stall
    // it. (The worst level runs last in both sweep sizes.)
    if (cleanGoodput > 0 &&
        worstGoodput * kMaxSlowdown < cleanGoodput) {
        std::fprintf(stderr,
                     "FAIL goodput degraded beyond bound: clean "
                     "%.1f msg/s, worst %.1f msg/s (> %.0fx)\n",
                     cleanGoodput, worstGoodput, kMaxSlowdown);
        failures++;
    }

    JsonLine meta = benchLine("network_chaos");
    meta.str("profile", "meta")
        .num("seed", seed)
        .str("mode", smoke ? "smoke" : "full")
        .num("failures", uint64_t(failures));
    appendJsonLine(kJsonPath, meta);
    note(std::string("JSON appended to ") + kJsonPath);
    note(std::string("metrics snapshot appended to ") + kMetricsPath);
    note(std::string("trace summaries + spans appended to ") +
         kTracePath);
    note(std::string("chrome trace -> ") + kChromePath);
    note(std::string("flight dump -> ") + kFlightPath);
    if (failures) {
        std::fprintf(stderr, "network chaos campaign: %zu invariant "
                             "violations\n",
                     failures);
        return 1;
    }
    note("all invariants held: zero forged accepted, zero "
         "corruption, zero loss");
    return 0;
}
