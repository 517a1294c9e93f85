/**
 * @file
 * SpanTracer: low-overhead end-to-end request tracing for the
 * service and network layers (DESIGN.md, "Request tracing & flight
 * recorder").
 *
 * The model is deliberately small:
 *  - a *span* is a named interval (begin/end in microseconds) with a
 *    trace ID (the request it belongs to), its own span ID, and an
 *    optional parent span ID — enough to reconstruct the
 *    queue-wait → drain-wait → compute causality chain of one
 *    request, or the send → retransmit → ack life of one telemetry
 *    frame. Instant events are spans with end == begin.
 *  - spans are recorded into per-producer bounded ring buffers
 *    (SpanRing): exactly one thread writes each ring, so the push
 *    path is a plain array store plus one relaxed atomic counter
 *    bump — lock-free by construction, wait-free in fact. When the
 *    ring wraps, the oldest record is overwritten and a drop counter
 *    advances; nothing ever blocks a worker.
 *  - IDs are allocated from a single atomic counter, so they are
 *    unique across threads and deterministic for deterministic
 *    workloads (no randomness, no wall clock in any ID).
 *
 * Zero-cost-when-idle contract (same as the VCD/leakage sinks): a
 * tracer that is attached but disabled — or not attached at all —
 * must not perturb the traced subsystem. Producers guard every
 * recording site with `tracer && tracer->enabled()`; the service and
 * network layers sample that flag outside their hot loops. The ISS
 * is never touched at all (the only ISS-side hook, Machine's
 * TrapSink, fires after run() has already stopped), which is what
 * lets tests pin "attached tracer = zero simulated cycles" on both
 * backends.
 *
 * Timestamps are producer-defined: the network layer records
 * deterministic simulated microseconds, the service layer records
 * steady-clock microseconds relative to the tracer epoch (nowUs()).
 * Readers snapshot rings only at quiesce points (workers joined, or
 * the single-threaded net testbed between ticks); the atomic
 * counters alone are safe to read concurrently, which is all the
 * GDB `monitor trace status` command needs.
 *
 * Exports reuse support/json.hh: JSON-lines (one flat object per
 * span, gate-ingestible by jaavr-report) and a Chrome trace-event
 * array loadable in chrome://tracing / Perfetto.
 */

#ifndef JAAVR_OBS_TRACE_HH
#define JAAVR_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hh"

namespace jaavr::obs
{

/**
 * One recorded span. POD on purpose: name/category/argument names
 * must be string literals (or otherwise outlive the tracer) so a
 * record is a fixed-size copy with no ownership.
 */
struct SpanRecord
{
    const char *name = "";    ///< e.g. "request", "send_ack"
    const char *cat = "";     ///< e.g. "service", "net"
    uint64_t traceId = 0;     ///< request identity; 0 = untraced
    uint64_t spanId = 0;      ///< unique per tracer
    uint64_t parentId = 0;    ///< enclosing span; 0 = root
    uint64_t beginUs = 0;     ///< producer time base (sim or steady)
    uint64_t endUs = 0;       ///< == beginUs for instant events
    const char *arg0Name = nullptr; ///< optional numeric argument
    uint64_t arg0 = 0;
    const char *arg1Name = nullptr;
    uint64_t arg1 = 0;

    uint64_t durUs() const { return endUs - beginUs; }
};

/**
 * Bounded single-producer span ring. push() is the producer-only
 * hot path; snapshot() is for quiesced readers and returns records
 * oldest-first. recorded()/dropped() are safe from any thread.
 */
class SpanRing
{
  public:
    SpanRing(std::string source, size_t capacity);

    /** Producer thread only. Overwrites the oldest span when full. */
    void push(const SpanRecord &r)
    {
        uint64_t w = writeIdx.load(std::memory_order_relaxed);
        slots[w & mask] = r;
        writeIdx.store(w + 1, std::memory_order_release);
    }

    const std::string &source() const { return sourceV; }
    size_t capacity() const { return slots.size(); }
    /** Total spans ever pushed (any thread). */
    uint64_t recorded() const
    {
        return writeIdx.load(std::memory_order_acquire);
    }
    /** Spans overwritten before anyone read them (any thread). */
    uint64_t dropped() const
    {
        uint64_t n = recorded();
        return n > slots.size() ? n - slots.size() : 0;
    }

    /** Oldest-first copy; call only after the producer quiesced. */
    std::vector<SpanRecord> snapshot() const;

  private:
    std::string sourceV;
    uint64_t mask;
    std::vector<SpanRecord> slots;
    std::atomic<uint64_t> writeIdx{0};
};

/**
 * The tracer: a registry of per-producer rings plus the shared ID
 * counter and time base. Create once, hand `ring()` pointers to
 * producers at attach time (ring creation takes a mutex; pushes
 * never do).
 */
class SpanTracer
{
  public:
    explicit SpanTracer(size_t ringCapacity = 4096);

    /** Recording armed? Producers must check before every record. */
    bool enabled() const
    {
        return enabledV.load(std::memory_order_relaxed);
    }
    void setEnabled(bool on)
    {
        enabledV.store(on, std::memory_order_relaxed);
    }

    /**
     * Look up or create the ring for @p source ("worker0",
     * "node:gw", ...). The pointer is stable for the tracer's
     * lifetime; each ring must keep a single pushing thread.
     */
    SpanRing *ring(const std::string &source);

    /** Fresh trace identity (for a request / telemetry message). */
    uint64_t newTraceId()
    {
        return nextId.fetch_add(1, std::memory_order_relaxed);
    }
    /** Fresh span identity. Shares the trace-ID counter space. */
    uint64_t newSpanId()
    {
        return nextId.fetch_add(1, std::memory_order_relaxed);
    }

    /** Steady-clock µs since tracer construction (service layer). */
    uint64_t nowUs() const;
    /** Convert an externally sampled steady time point to tracer µs. */
    uint64_t toUs(std::chrono::steady_clock::time_point t) const;

    size_t ringCount() const;
    uint64_t totalRecorded() const;
    uint64_t totalDropped() const;
    /** One-line status for `monitor trace status`. */
    std::string statusLine() const;

    /** (source, oldest-first records) per ring, creation order. */
    std::vector<std::pair<std::string, std::vector<SpanRecord>>>
    snapshotAll() const;

    /**
     * Append one flat JSON object per span to @p path. @p stamp is
     * the row prototype (benchLine()-style provenance fields); span
     * fields are added to a copy per row. Quiesced producers only.
     */
    bool exportJsonLines(const std::string &path,
                         const JsonLine &stamp) const;

    /**
     * Write a Chrome trace-event array (one complete "X"/"i" event
     * per span, one thread lane per ring) to @p path. Quiesced
     * producers only.
     */
    bool exportChromeTrace(const std::string &path) const;

  private:
    size_t ringCapacity;
    std::chrono::steady_clock::time_point epoch;
    std::atomic<bool> enabledV{false};
    std::atomic<uint64_t> nextId{1};
    mutable std::mutex ringsMutex;
    std::vector<std::unique_ptr<SpanRing>> rings;
};

} // namespace jaavr::obs

#endif // JAAVR_OBS_TRACE_HH
