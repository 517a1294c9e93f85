#include "harness/report.hh"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"latency_ms.p95", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> v;
        v.push_back({"untraced.latency_ms.p50", "ms"});
        v.push_back({"untraced.ops_per_s", "1/s"});
        for (const char *op : {"mul", "add", "sub", "inv"}) {
            std::string p = std::string("avrgen.") + op;
            v.push_back({p + ".calls_per_smult", "count"});
            v.push_back({p + ".host_ns", "ns"});
            v.push_back({p + ".sim_cycles", "cycles"});
            v.push_back({p + ".sim_instr", "count"});
            v.push_back({p + ".ns_per_sim_instr", "ns"});
        }
        v.push_back({"avr.sim_minstr_per_s", "Minstr/s"});
        v.push_back({"avr.cycles_per_inst", "cycles/inst"});
        v.push_back({"avr.mac_stall_nops_per_smult", "count"});
        v.push_back({"avr.traps", "count"});
        v.push_back({"avr.smult_vs_paper", "ratio"});
        v.push_back({"ladder.smult_sim_cycles", "cycles"});
        v.push_back({"ladder.cycle_ledger_ratio", "ratio"});
        v.push_back({"ladder.glue_ms", "ms"});
        for (const char *stage : {"queue_wait_us", "drain_wait_us",
                                  "compute_us"}) {
            v.push_back({std::string("service.") + stage + ".p50", "us"});
            v.push_back({std::string("service.") + stage + ".p99", "us"});
        }
        v.push_back({"service.stage_sum_ratio", "ratio"});
        v.push_back({"service.batch_occupancy", "count"});
        v.push_back({"service.worker_busy_ratio", "ratio"});
        v.push_back({"service.backpressure_refusals", "count"});
        v.push_back({"service.latency_ms.p99", "ms"});
        v.push_back({"service.reported_p99_ratio", "ratio"});
        for (const char *c : {"secp160r1", "secp160k1", "glv-opf"}) {
            v.push_back({std::string("curves.sign_us.") + c, "us"});
            v.push_back({std::string("curves.verify_us.") + c, "us"});
        }
        for (const char *c : {"secp160r1", "secp160k1", "glv-opf",
                              "weierstrass-opf", "montgomery-opf",
                              "edwards-opf"})
            v.push_back({std::string("curves.derive_us.") + c, "us"});
        for (const char *f : {"secp160r1", "opf"}) {
            v.push_back({std::string("field.mul_ns.") + f, "ns"});
            v.push_back({std::string("field.inv_ns.") + f, "ns"});
        }
        v.push_back({"field.mul_per_sign", "count"});
        v.push_back({"field.mul_per_verify", "count"});
        v.push_back({"gen.lag_us.p99", "us"});
        v.push_back({"obs.trace_overhead_pct", "%"});
        v.push_back({"failed_ratio", "ratio"});
        return v;
    }();
    return specs;
}

Report::Report(bool traced)
{
    for (const MetricSpec &s : traced ? perLayerMetrics() : endToEndMetrics())
        values.push_back({s, 0.0});
}

void
Report::set(const std::string &name, double value)
{
    for (Value &v : values) {
        if (v.spec.name == name) {
            v.value = value;
            return;
        }
    }
    throw std::logic_error("perfbench: uncatalogued metric " + name);
}

void
Report::mismatch(const std::string &what)
{
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
    mismatches++;
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attemptedV);
    out += ", \"failed\": " + std::to_string(failedV);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Value &v : values) {
        if (!std::isfinite(v.value))
            throw std::runtime_error("perfbench: non-finite metric " +
                                     v.spec.name);
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", v.value);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + v.spec.name + "\": {\"value\": " + num +
               ", \"unit\": \"" + v.spec.unit + "\"}";
    }
    out += "}}";
    return out;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

} // namespace perfbench
