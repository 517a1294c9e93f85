/**
 * @file
 * service_sign_burst and service_mixed_paced: EccService loaded from
 * one generator thread through its public calls, every result checked
 * against the single-call golden model.
 *
 * Inputs come from a seeded pool of request templates whose golden
 * outputs are computed before anything is timed; requests cycle
 * through the pool (the service keeps no per-input state, so repeats
 * cost the same as fresh inputs).
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "curves/standard_curves.hh"
#include "curves/validate.hh"
#include "field/secp160.hh"
#include "harness/stats.hh"
#include "harness/workloads.hh"
#include "obs/trace.hh"
#include "service/context.hh"
#include "service/service.hh"
#include "support/metrics.hh"

namespace perfbench
{

using jaavr::AffinePoint;
using jaavr::BigUInt;
using jaavr::Ecdsa;
using jaavr::EcdsaSignature;
using jaavr::EccService;
using jaavr::FieldOpCounts;
using jaavr::PrimeField;
using jaavr::Rng;
using jaavr::ServiceCurve;
using jaavr::ServiceCurveSet;
using jaavr::ServiceOp;
using jaavr::ServiceRequest;
using jaavr::ServiceStatus;

namespace
{

constexpr size_t kBurstInFlight = 64;
constexpr size_t kBurstPool = 512;
/**
 * Offered rate of service_mixed_paced, fixed once: about a third of
 * this mix's capacity on a 4-core x86-64 host at the commit that
 * defined the benchmark. It must never be derived from a measurement
 * in the same run, which would hand a faster build a heavier load.
 */
constexpr double kMixedRate = 300;
constexpr size_t kMixedPool = 240;
/** Request records the open-loop generator can have outstanding. */
constexpr size_t kPacedSlots = 4096;
constexpr double kWarmupSeconds = 0.25;
constexpr size_t kPacedWarmup = 64;
constexpr size_t kTraceRingCapacity = size_t(1) << 16;

const ServiceCurve kEcdsaCurves[] = {ServiceCurve::Secp160r1,
                                     ServiceCurve::Secp160k1,
                                     ServiceCurve::GlvOpf};
const ServiceCurve kAllCurves[] = {
    ServiceCurve::Secp160r1,      ServiceCurve::Secp160k1,
    ServiceCurve::GlvOpf,         ServiceCurve::WeierstrassOpf,
    ServiceCurve::MontgomeryOpf,  ServiceCurve::EdwardsOpf};

double
msSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/**
 * A generator poll that found nothing to do sleeps briefly instead of
 * spinning, so the generator does not compete with the workers for
 * CPU time.
 */
void
idle()
{
    std::this_thread::sleep_for(std::chrono::microseconds(20));
}

/** One request's inputs and the golden model's outputs for it. */
struct Template
{
    ServiceOp op = ServiceOp::Sign;
    ServiceCurve curve = ServiceCurve::Secp160r1;
    std::string message;
    BigUInt key;
    BigUInt nonce;
    EcdsaSignature sig;
    AffinePoint peer;
    BigUInt peerX;

    EcdsaSignature expSig;
    bool expVerify = false;
    AffinePoint expPoint;
    BigUInt expX;
};

/**
 * Benchmark-owned single-call objects. The combs are attached as in
 * every service worker, so a golden call takes the same code path as
 * a request the service processes alone. Traced runs also time each
 * golden call (the curves layer) and count the secp160r1 field
 * multiplications of its signs and verifies (the field layer).
 */
struct Golden
{
    jaavr::ServiceTables tables;
    jaavr::WorkerContext ctx;
    bool traced;
    FieldOpCounts r1Counts;
    std::map<std::string, std::vector<double>> callUs;
    uint64_t signMuls = 0, signs = 0, verifyMuls = 0, verifies = 0;

    Golden(uint64_t seed, bool trace)
        : tables(jaavr::ServiceTables::build(ServiceCurveSet::instance())),
          ctx(seed), traced(trace)
    {
        ctx.ecdsaR1.attachFixedBase(tables.r1.get());
        ctx.ecdsaK1.attachFixedBase(tables.k1.get());
        ctx.ecdsaGlv.attachFixedBase(tables.glv.get());
        if (traced)
            ctx.r1Field.attachCounter(&r1Counts);
    }

    ~Golden() { ctx.r1Field.attachCounter(nullptr); }

    /** Run @p fn as the curves-layer call @p key ("sign_us", ...). */
    template <class F>
    auto call(const char *key, ServiceCurve c, F &&fn)
    {
        uint64_t muls0 = r1Counts.mul + r1Counts.sqr;
        Clock::time_point t0 = Clock::now();
        auto out = fn();
        double us = msSince(t0, Clock::now()) * 1e3;
        if (traced) {
            callUs[std::string(key) + "." + jaavr::serviceCurveName(c)]
                .push_back(us);
            uint64_t muls = r1Counts.mul + r1Counts.sqr - muls0;
            if (c == ServiceCurve::Secp160r1 && !std::strcmp(key, "sign_us")) {
                signMuls += muls;
                signs++;
            } else if (c == ServiceCurve::Secp160r1 &&
                       !std::strcmp(key, "verify_us")) {
                verifyMuls += muls;
                verifies++;
            }
        }
        return out;
    }
};

BigUInt
randomScalar(Rng &rng, const BigUInt &n)
{
    return BigUInt(1) + BigUInt::random(rng, n - BigUInt(1));
}

BigUInt
randomNonzero160(Rng &rng)
{
    BigUInt k;
    do
        k = BigUInt::randomBits(rng, 160);
    while (k.isZero());
    return k;
}

Template
makeSign(Golden &g, ServiceCurve c, Rng &rng, const std::string &msg)
{
    const Ecdsa &S = *g.ctx.signerFor(c);
    for (;;) {
        Template t;
        t.op = ServiceOp::Sign;
        t.curve = c;
        t.message = msg;
        t.key = randomScalar(rng, S.order());
        t.nonce = randomScalar(rng, S.order());
        auto sig = g.call("sign_us", c, [&] {
            return S.signWithNonce(t.message, t.key, t.nonce);
        });
        if (!sig)
            continue;
        t.expSig = *sig;
        return t;
    }
}

Template
makeVerify(Golden &g, ServiceCurve c, Rng &rng, const std::string &msg,
           bool tampered)
{
    const Ecdsa &S = *g.ctx.signerFor(c);
    Template t;
    t.op = ServiceOp::Verify;
    t.curve = c;
    BigUInt d = randomScalar(rng, S.order());
    t.peer = S.mulG(d);
    std::optional<EcdsaSignature> sig;
    while (!sig)
        sig = S.signWithNonce(msg, d, randomScalar(rng, S.order()));
    t.sig = *sig;
    t.message = tampered ? msg + " (tampered)" : msg;
    t.expVerify = g.call("verify_us", c, [&] {
        return S.verify(t.message, t.sig, t.peer);
    });
    if (t.expVerify == tampered)
        throw std::logic_error("golden verify disagrees with the "
                               "workload's construction");
    return t;
}

Template
makeDerive(Golden &g, ServiceCurve c, Rng &rng)
{
    jaavr::WorkerContext &ctx = g.ctx;
    const ServiceCurveSet &set = ServiceCurveSet::instance();
    for (;;) {
        Template t;
        t.op = ServiceOp::Derive;
        t.curve = c;
        if (const Ecdsa *S = ctx.signerFor(c)) {
            t.peer = S->mulG(randomScalar(rng, S->order()));
            t.key = randomScalar(rng, S->order());
            t.expPoint =
                g.call("derive_us", c, [&] { return S->mul(t.key, t.peer); });
        } else if (c == ServiceCurve::WeierstrassOpf) {
            t.peer =
                ctx.weierstrassOpf.mulNaf(randomNonzero160(rng), set.wBase);
            t.key = randomNonzero160(rng);
            if (t.peer.inf || !jaavr::validatePoint(ctx.weierstrassOpf, t.peer))
                continue;
            t.expPoint = g.call("derive_us", c, [&] {
                return ctx.weierstrassOpf.mulNaf(t.key, t.peer);
            });
        } else if (c == ServiceCurve::MontgomeryOpf) {
            do
                t.peerX = ctx.opfField.random(rng);
            while (!jaavr::validateX(ctx.montgomeryOpf, t.peerX));
            t.key = randomNonzero160(rng);
            auto x = g.call("derive_us", c, [&] {
                return ctx.montgomeryOpf.ladder(t.key, t.peerX);
            });
            if (!x)
                continue;
            t.expX = *x;
            return t;
        } else {
            t.peer = ctx.edwardsOpf.mulNaf(randomNonzero160(rng), set.eBase);
            t.key = randomNonzero160(rng);
            if (!jaavr::validatePoint(ctx.edwardsOpf, t.peer))
                continue;
            t.expPoint = g.call("derive_us", c, [&] {
                return ctx.edwardsOpf.mulNaf(t.key, t.peer);
            });
        }
        if (!t.expPoint.inf)
            return t;
    }
}

/** secp160r1 signs with explicit nonces: the burst workload's pool. */
std::vector<Template>
burstPool(Golden &g, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Template> pool;
    for (size_t i = 0; i < kBurstPool; i++)
        pool.push_back(makeSign(g, ServiceCurve::Secp160r1, rng,
                                "burst " + std::to_string(i)));
    return pool;
}

/**
 * The paced mix, in exact proportions so that only the values, not
 * the composition, vary with the seed (the latency percentiles depend
 * on the share of the slowest request kinds): 1/5 Sign and 2/5 Verify
 * split evenly over the three ECDSA curves, 2/5 Derive split evenly
 * over all six; 1 in 8 verifies is tampered and must reject.
 */
std::vector<Template>
mixedPool(Golden &g, uint64_t seed)
{
    static_assert(kMixedPool % 60 == 0, "pool must hold whole quotas");
    constexpr size_t perCurve = kMixedPool / 15;
    Rng rng(seed);
    std::vector<Template> pool;
    for (ServiceCurve c : kEcdsaCurves) {
        for (size_t i = 0; i < perCurve; i++)
            pool.push_back(makeSign(g, c, rng,
                                    "sign " + std::to_string(pool.size())));
        for (size_t i = 0; i < 2 * perCurve; i++)
            pool.push_back(makeVerify(g, c, rng,
                                      "verify " + std::to_string(pool.size()),
                                      i % 8 == 0));
    }
    for (ServiceCurve c : kAllCurves)
        for (size_t i = 0; i < kMixedPool * 2 / 5 / 6; i++)
            pool.push_back(makeDerive(g, c, rng));
    return pool;
}

/**
 * Seeded order over the pool: each run of pool.size() consecutive
 * requests uses every template once, so the mix is exact over the run.
 */
class Deck
{
  public:
    Deck(size_t n, uint64_t seed) : order(n), rng(seed)
    {
        for (size_t i = 0; i < n; i++)
            order[i] = i;
    }

    size_t next()
    {
        if (pos == order.size())
            pos = 0;
        if (pos == 0)
            for (size_t i = order.size() - 1; i > 0; i--)
                std::swap(order[i], order[rng.below(i + 1)]);
        return order[pos++];
    }

  private:
    std::vector<size_t> order;
    Rng rng;
    size_t pos = 0;
};

void
fill(ServiceRequest &r, const Template &t)
{
    r.op = t.op;
    r.curve = t.curve;
    r.hardened = false;
    r.message = t.message;
    r.privateKey = t.key;
    r.nonce = t.nonce;
    r.signature = t.sig;
    r.peer = t.peer;
    r.peerX = t.peerX;
}

bool
samePoint(const AffinePoint &a, const AffinePoint &b)
{
    return a.inf == b.inf && (a.inf || (a.x == b.x && a.y == b.y));
}

/** Account one completed request against its golden outputs. */
void
judge(const ServiceRequest &r, const Template &t, Report &rep)
{
    if (r.status != ServiceStatus::Ok) {
        rep.attempt(false);
        return;
    }
    bool ok = true;
    switch (t.op) {
    case ServiceOp::Sign:
        ok = r.sigOut.r == t.expSig.r && r.sigOut.s == t.expSig.s;
        break;
    case ServiceOp::Verify:
        ok = r.verifyOk == t.expVerify;
        break;
    case ServiceOp::Derive:
        ok = t.curve == ServiceCurve::MontgomeryOpf
                 ? r.xOut == t.expX
                 : samePoint(r.pointOut, t.expPoint);
        break;
    case ServiceOp::Keygen:
        ok = false;
        break;
    }
    if (!ok)
        rep.mismatch(std::string(jaavr::serviceOpName(t.op)) + " on " +
                     jaavr::serviceCurveName(t.curve) +
                     " differs from the single-call golden model");
    rep.attempt(ok);
}

struct Slot
{
    ServiceRequest req;
    size_t tmpl = 0;
    Clock::time_point start; ///< submit (closed loop) or due time
};

struct LoopResult
{
    std::vector<double> latencyMs;
    std::vector<double> lagUs;
    size_t completedInWindow = 0;
    double elapsedS = 0;
};

/**
 * Closed loop: keep kBurstInFlight requests outstanding for @p seconds;
 * a slot resubmits as soon as the generator sees its request done.
 */
LoopResult
runClosed(EccService &svc, const std::vector<Template> &pool, size_t &next,
          double seconds, Report &rep, std::vector<double> *all)
{
    auto slots = std::make_unique<Slot[]>(kBurstInFlight);
    std::vector<char> busy(kBurstInFlight, 0);
    size_t inflight = 0;
    LoopResult res;
    Clock::time_point t0 = Clock::now();
    Clock::time_point deadline = t0 + toDuration(seconds);
    for (;;) {
        bool open = Clock::now() < deadline;
        bool progressed = false;
        for (size_t i = 0; i < kBurstInFlight; i++) {
            Slot &s = slots[i];
            if (busy[i]) {
                if (!s.req.done.load(std::memory_order_acquire))
                    continue;
                Clock::time_point t = Clock::now();
                progressed = true;
                busy[i] = 0;
                inflight--;
                double ms = msSince(s.start, t);
                res.latencyMs.push_back(ms);
                if (all)
                    all->push_back(ms);
                if (t <= deadline)
                    res.completedInWindow++;
                judge(s.req, pool[s.tmpl], rep);
            }
            if (!open)
                continue;
            s.tmpl = next++ % pool.size();
            fill(s.req, pool[s.tmpl]);
            s.start = Clock::now();
            if (svc.trySubmit(&s.req)) {
                busy[i] = 1;
                inflight++;
            } else {
                rep.attempt(false); // refused: backpressure
            }
        }
        if (!open && inflight == 0)
            break;
        if (!progressed)
            idle();
    }
    res.elapsedS = seconds;
    return res;
}

/**
 * Open loop: request j is due at start + j / rate whatever the service
 * is doing; latency runs from the due time to when the generator sees
 * the request done.
 */
LoopResult
runPaced(EccService &svc, const std::vector<Template> &pool, Deck &deck,
         size_t count, Report &rep, std::vector<double> *all)
{
    auto slots = std::make_unique<Slot[]>(kPacedSlots);
    std::vector<Slot *> freeSlots, inflight;
    for (size_t i = 0; i < kPacedSlots; i++)
        freeSlots.push_back(&slots[i]);
    LoopResult res;
    Clock::time_point t0 = Clock::now();
    size_t j = 0;
    while (j < count || !inflight.empty()) {
        Clock::time_point now = Clock::now();
        bool progressed = false;
        while (j < count) {
            Clock::time_point due =
                t0 + std::chrono::nanoseconds(dueOffsetNs(j, kMixedRate));
            if (due > now)
                break;
            j++;
            progressed = true;
            if (freeSlots.empty()) {
                rep.attempt(false); // refused: generator out of records
                continue;
            }
            Slot *s = freeSlots.back();
            freeSlots.pop_back();
            s->tmpl = deck.next();
            fill(s->req, pool[s->tmpl]);
            s->start = due;
            res.lagUs.push_back(msSince(due, Clock::now()) * 1e3);
            if (svc.trySubmit(&s->req)) {
                inflight.push_back(s);
            } else {
                rep.attempt(false); // refused: backpressure
                freeSlots.push_back(s);
            }
        }
        for (size_t i = 0; i < inflight.size();) {
            Slot *s = inflight[i];
            if (!s->req.done.load(std::memory_order_acquire)) {
                i++;
                continue;
            }
            double ms = msSince(s->start, Clock::now());
            res.latencyMs.push_back(ms);
            if (all)
                all->push_back(ms);
            res.completedInWindow++;
            judge(s->req, pool[s->tmpl], rep);
            inflight[i] = inflight.back();
            inflight.pop_back();
            freeSlots.push_back(s);
            progressed = true;
        }
        if (!progressed)
            idle();
    }
    res.elapsedS = secondsBetween(t0, Clock::now());
    return res;
}

std::unique_ptr<EccService>
startService(uint64_t seed, jaavr::obs::SpanTracer *tracer)
{
    jaavr::ServiceConfig cfg;
    cfg.rngSeed = seed;
    auto svc = std::make_unique<EccService>(cfg);
    if (tracer)
        svc->setTracer(tracer);
    svc->start();
    return svc;
}

/** Median ns per call of @p fn over nine batches of @p per_batch. */
template <class F>
double
nsPerCall(size_t per_batch, F &&fn)
{
    std::vector<double> batches;
    for (int b = 0; b < 9; b++) {
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < per_batch; i++)
            fn(i);
        batches.push_back(msSince(t0, Clock::now()) * 1e6 /
                          double(per_batch));
    }
    return median(batches);
}

/** field.* host timings on benchmark-owned secp160r1 and OPF fields. */
void
fieldTimings(uint64_t seed, Report &rep)
{
    jaavr::Secp160r1Field r1;
    PrimeField opf(jaavr::paperOpfField().modulus());
    Rng rng(seed);
    volatile uint32_t sink = 0;
    for (auto [name, f] : {std::pair<const char *, const PrimeField *>{
                               "secp160r1", &r1},
                           {"opf", &opf}}) {
        std::vector<BigUInt> a, b;
        for (int i = 0; i < 64; i++) {
            a.push_back(randomScalar(rng, f->modulus()));
            b.push_back(randomScalar(rng, f->modulus()));
        }
        rep.set(std::string("field.mul_ns.") + name,
                nsPerCall(4096, [&](size_t i) {
                    sink = sink + f->mul(a[i & 63], b[i & 63]).low32();
                }));
        rep.set(std::string("field.inv_ns.") + name,
                nsPerCall(64, [&](size_t i) {
                    sink = sink + f->inv(a[i & 63]).low32();
                }));
    }
}

/** Stage split of the traced segment, read back from its spans. */
void
spanMetrics(const jaavr::obs::SpanTracer &tracer, double window_s,
            unsigned workers, Report &rep)
{
    struct Req
    {
        uint64_t parent, begin, end, queue, drainWait;
    };
    std::unordered_map<uint64_t, uint64_t> drainBegin;
    std::vector<Req> reqs;
    double busyUs = 0;
    for (const auto &[source, recs] : tracer.snapshotAll()) {
        for (const jaavr::obs::SpanRecord &r : recs) {
            if (std::strcmp(r.cat, "service") != 0)
                continue;
            if (!std::strcmp(r.name, "drain")) {
                drainBegin[r.spanId] = r.beginUs;
                busyUs += double(r.durUs());
            } else if (r.arg0Name &&
                       !std::strcmp(r.arg0Name, "queue_wait_us")) {
                reqs.push_back({r.parentId, r.beginUs, r.endUs, r.arg0,
                                r.arg1});
            }
        }
    }
    std::vector<double> q, d, c;
    double stageSum = 0, e2eSum = 0;
    for (const Req &r : reqs) {
        auto it = drainBegin.find(r.parent);
        if (it == drainBegin.end())
            continue; // parent overwritten in its ring
        double compute = double(r.end) - double(it->second);
        q.push_back(double(r.queue));
        d.push_back(double(r.drainWait));
        c.push_back(compute);
        stageSum += double(r.queue) + double(r.drainWait) + compute;
        e2eSum += double(r.end - r.begin);
    }
    if (tracer.totalDropped())
        std::fprintf(stderr, "perfbench: %llu spans dropped from rings\n",
                     static_cast<unsigned long long>(tracer.totalDropped()));
    Summary qs = summarize(q), ds = summarize(d), cs = summarize(c);
    rep.set("service.queue_wait_us.p50", qs.p50);
    rep.set("service.queue_wait_us.p99", qs.p99);
    rep.set("service.drain_wait_us.p50", ds.p50);
    rep.set("service.drain_wait_us.p99", ds.p99);
    rep.set("service.compute_us.p50", cs.p50);
    rep.set("service.compute_us.p99", cs.p99);
    rep.set("service.stage_sum_ratio", e2eSum > 0 ? stageSum / e2eSum : 0);
    rep.set("service.worker_busy_ratio",
            busyUs / (window_s * 1e6 * double(workers)));
    std::printf("service spans: %zu requests attributed\n", q.size());
}

/** Ops per batch from the service's own counters. */
double
batchOccupancy(const EccService &svc)
{
    jaavr::MetricsRegistry reg;
    svc.publishMetrics(reg);
    double ops = 0, batches = 0;
    for (unsigned w = 0; w < svc.config().workers; w++) {
        jaavr::MetricLabels l{{"worker", std::to_string(w)}};
        ops += double(reg.counter("service_ops", l).value());
        batches += double(reg.counter("service_batches", l).value());
    }
    return batches > 0 ? ops / batches : 0;
}

/** How a workload loads a running service for one segment. */
class Traffic
{
  public:
    virtual ~Traffic() = default;
    virtual void warmup(EccService &svc, Report &rep,
                        std::vector<double> *all) = 0;
    virtual LoopResult measure(EccService &svc, double seconds,
                               size_t min_samples, Report &rep,
                               std::vector<double> *all) = 0;
};

class BurstTraffic : public Traffic
{
  public:
    explicit BurstTraffic(const std::vector<Template> &p) : pool(p) {}

    void warmup(EccService &svc, Report &rep,
                std::vector<double> *all) override
    {
        runClosed(svc, pool, next, kWarmupSeconds, rep, all);
    }

    LoopResult measure(EccService &svc, double seconds, size_t,
                       Report &rep, std::vector<double> *all) override
    {
        return runClosed(svc, pool, next, seconds, rep, all);
    }

  private:
    const std::vector<Template> &pool;
    size_t next = 0;
};

class PacedTraffic : public Traffic
{
  public:
    PacedTraffic(const std::vector<Template> &p, uint64_t seed)
        : pool(p), deck(p.size(), seed)
    {}

    void warmup(EccService &svc, Report &rep,
                std::vector<double> *all) override
    {
        runPaced(svc, pool, deck, kPacedWarmup, rep, all);
    }

    LoopResult measure(EccService &svc, double seconds, size_t min_samples,
                       Report &rep, std::vector<double> *all) override
    {
        size_t count = std::max(
            min_samples, static_cast<size_t>(seconds * kMixedRate));
        return runPaced(svc, pool, deck, count, rep, all);
    }

  private:
    const std::vector<Template> &pool;
    Deck deck;
};

void
runService(const RunOptions &opt, bool paced, Report &rep)
{
    // Golden precomputation (comb tables, curve singletons, pool
    // outputs) happens before anything is timed.
    Golden g(opt.seed, opt.trace);
    std::vector<Template> pool =
        paced ? mixedPool(g, opt.seed) : burstPool(g, opt.seed);
    std::unique_ptr<Traffic> traffic;
    if (paced)
        traffic = std::make_unique<PacedTraffic>(pool, opt.seed ^ 0x5eed);
    else
        traffic = std::make_unique<BurstTraffic>(pool);
    const char *name = paced ? "service_mixed_paced" : "service_sign_burst";

    if (!opt.trace) {
        std::vector<double> setupS;
        auto setupOnce = [&] {
            Clock::time_point t0 = Clock::now();
            std::unique_ptr<EccService> probe = startService(opt.seed, nullptr);
            return secondsBetween(t0, Clock::now());
        };
        setupPhase(setupOnce, setupS);
        std::unique_ptr<EccService> svc = startService(opt.seed, nullptr);
        traffic->warmup(*svc, rep, nullptr);
        LoopResult res = traffic->measure(*svc, opt.seconds,
                                          minSamplesFor(95), rep, nullptr);
        svc->stop();
        setupPhase(setupOnce, setupS);
        Summary lat = summarize(res.latencyMs);
        rep.set("setup_s", median(setupS));
        rep.set("latency_ms.p95", windowedP95(res.latencyMs));
        rep.set("peak_rss_mb", peakRssMb());
        std::printf("%s: n=%zu latency_ms p50=%.4f p95=%.4f p99=%.4f "
                    "ops_per_s=%.2f refusals=%llu\n",
                    name, lat.n, lat.p50, lat.p95, lat.p99,
                    double(res.completedInWindow) / res.elapsedS,
                    static_cast<unsigned long long>(
                        svc->backpressureRefusals()));
        return;
    }

    fieldTimings(opt.seed, rep);
    for (const auto &[key, us] : g.callUs)
        rep.set("curves." + key, median(us));
    rep.set("field.mul_per_sign",
            g.signs ? double(g.signMuls) / double(g.signs) : 0);
    rep.set("field.mul_per_verify",
            g.verifies ? double(g.verifyMuls) / double(g.verifies) : 0);

    // Untraced half: the overhead baseline, the outside p99 and the
    // generator's lag.
    Summary plain;
    {
        std::unique_ptr<EccService> svc = startService(opt.seed, nullptr);
        traffic->warmup(*svc, rep, nullptr);
        LoopResult res = traffic->measure(*svc, opt.seconds / 2,
                                          minSamplesFor(99), rep, nullptr);
        svc->stop();
        plain = summarize(res.latencyMs);
        rep.set("untraced.latency_ms.p50", plain.p50);
        rep.set("untraced.ops_per_s",
                double(res.completedInWindow) / res.elapsedS);
        rep.set("service.latency_ms.p99", plain.p99);
        if (paced)
            rep.set("gen.lag_us.p99", summarize(res.lagUs).p99);
    }

    // Traced half: spans from the service's own tracer, enabled after
    // the warm-up so they cover the measured window only.
    jaavr::obs::SpanTracer tracer(kTraceRingCapacity);
    std::unique_ptr<EccService> svc = startService(opt.seed, &tracer);
    std::vector<double> all;
    traffic->warmup(*svc, rep, &all);
    tracer.setEnabled(true);
    Clock::time_point t0 = Clock::now();
    LoopResult res = traffic->measure(*svc, opt.seconds / 2,
                                      minSamplesFor(99), rep, &all);
    double windowS = secondsBetween(t0, Clock::now());
    svc->stop();
    tracer.setEnabled(false);

    Summary traced = summarize(res.latencyMs);
    Summary outside = summarize(all);
    spanMetrics(tracer, windowS, svc->config().workers, rep);
    rep.set("service.batch_occupancy", batchOccupancy(*svc));
    rep.set("service.backpressure_refusals",
            double(svc->backpressureRefusals()));
    rep.set("service.reported_p99_ratio",
            svc->latencyPercentileUs(99) / (outside.p99 * 1e3));
    rep.set("obs.trace_overhead_pct",
            (traced.p50 - plain.p50) / plain.p50 * 100.0);
    rep.set("failed_ratio", rep.failedRatio());
    std::printf("%s traced: n=%zu latency_ms p50=%.4f (untraced %.4f) "
                "service p50/p99 us=%.1f/%.1f outside=%.1f/%.1f\n",
                name, traced.n, traced.p50, plain.p50,
                svc->latencyPercentileUs(50), svc->latencyPercentileUs(99),
                outside.p50 * 1e3, outside.p99 * 1e3);
}

} // namespace

void
runSignBurst(const RunOptions &opt, Report &rep)
{
    runService(opt, false, rep);
}

void
runMixedPaced(const RunOptions &opt, Report &rep)
{
    runService(opt, true, rep);
}

} // namespace perfbench
