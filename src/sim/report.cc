#include "sim/report.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace discsec {
namespace sim {
namespace {

/// Phase histograms surfaced as per-phase p50/p99 counters in the JSON.
const char* const kPhaseHistograms[] = {
    "player.verify_us", "player.decrypt_us", "player.policy_us",
    "player.markup_us", "player.script_us",
};

std::string EscapeJson(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

uint64_t TotalShed(const xkms::XkmsdStats& s) {
  return s.shed_queue_full + s.shed_oversized + s.shed_malformed +
         s.shed_fault;
}

std::string Params(const ScenarioSpec& spec) {
  std::string params = std::to_string(spec.players);
  params += "/";
  params += CacheStateName(spec.cache);
  params += "/";
  params += spec.chaos;
  if (spec.jobs > 0) params += "/jobs" + std::to_string(spec.jobs);
  if (spec.burst > 0) params += "/burst" + std::to_string(spec.burst);
  return params;
}

}  // namespace

std::string MatrixTable(const FleetReport& report) {
  std::ostringstream out;
  out << "fleet matrix · seed " << report.seed << "\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-18s %-5s %-6s %7s %6s %5s %5s %6s %4s %4s %4s %5s  %s\n",
                "scenario", "cache", "chaos", "events", "clean", "degr",
                "quar", "transi", "atk", "rej", "rev", "stale", "digest");
  out << line;
  for (const ScenarioResult& row : report.rows) {
    std::snprintf(
        line, sizeof(line),
        "%-18s %-5s %-6s %7" PRIu64 " %6" PRIu64 " %5" PRIu64 " %5" PRIu64
        " %6" PRIu64 " %4" PRIu64 " %4" PRIu64 " %4" PRIu64 " %5" PRIu64
        "  %.12s\n",
        row.spec.name.c_str(), CacheStateName(row.spec.cache),
        row.spec.chaos.c_str(), row.events, row.played_clean,
        row.played_degraded, row.quarantined_tracks, row.transient_failures,
        row.attack_events, row.attack_rejected, row.revoked_keys,
        row.incorrect_valid, row.event_digest.c_str());
    out << line;
  }
  return out.str();
}

std::string FleetBenchJson(const FleetReport& report) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"discsec-bench-v1\",\n  \"bench\": \"fleet\",\n"
      << "  \"seed\": " << report.seed << ",\n  \"results\": [";
  bool first_row = true;
  for (const ScenarioResult& row : report.rows) {
    if (!first_row) out << ",";
    first_row = false;

    const obs::HistogramSnapshot* event_hist =
        row.metrics.histogram("sim.event_us");
    double p50 = 0.0, p99 = 0.0, mean = 0.0;
    if (event_hist != nullptr && event_hist->count > 0) {
      p50 = static_cast<double>(event_hist->p50_micros);
      p99 = static_cast<double>(event_hist->p99_micros);
      mean = static_cast<double>(event_hist->sum_micros) /
             static_cast<double>(event_hist->count);
    }

    // The counter block: throughput, invariant tallies, cache and responder
    // health, per-phase percentiles, and per-attack-class rejections.
    std::map<std::string, double> counters;
    counters["events"] = static_cast<double>(row.events);
    counters["throughput_eps"] =
        row.wall_seconds > 0.0
            ? static_cast<double>(row.events) / row.wall_seconds
            : 0.0;
    counters["played_clean"] = static_cast<double>(row.played_clean);
    counters["played_degraded"] = static_cast<double>(row.played_degraded);
    counters["quarantined_tracks"] =
        static_cast<double>(row.quarantined_tracks);
    counters["transient_failures"] =
        static_cast<double>(row.transient_failures);
    counters["attack_events"] = static_cast<double>(row.attack_events);
    counters["attack_rejected"] = static_cast<double>(row.attack_rejected);
    counters["attack_accepted"] = static_cast<double>(row.attack_accepted);
    counters["attack_wrong_code"] = static_cast<double>(row.attack_wrong_code);
    counters["revoked_keys"] = static_cast<double>(row.revoked_keys);
    counters["revoked_checks"] = static_cast<double>(row.revoked_checks);
    counters["incorrect_valid"] = static_cast<double>(row.incorrect_valid);
    counters["chaos_engine_fires"] =
        static_cast<double>(row.chaos_engine_fires);
    counters["chaos_responder_fires"] =
        static_cast<double>(row.chaos_responder_fires);
    counters["locate_cache.hit_rate"] =
        Ratio(row.locate.hits, row.locate.hits + row.locate.misses);
    counters["xkmsd.served"] = static_cast<double>(row.responder.served);
    counters["xkmsd.degraded_locates"] =
        static_cast<double>(row.responder.degraded_locates);
    const uint64_t shed = TotalShed(row.responder);
    counters["xkmsd.shed"] = static_cast<double>(shed);
    counters["xkmsd.shed_rate"] = Ratio(shed, row.responder.admitted + shed);
    if (row.spec.burst > 0) {
      counters["burst_submitted"] = static_cast<double>(row.burst_submitted);
      counters["burst_completions"] =
          static_cast<double>(row.burst_completions);
    }
    for (const char* name : kPhaseHistograms) {
      const obs::HistogramSnapshot* hist = row.metrics.histogram(name);
      if (hist == nullptr || hist->count == 0) continue;
      counters[std::string(name) + ".p50"] =
          static_cast<double>(hist->p50_micros);
      counters[std::string(name) + ".p99"] =
          static_cast<double>(hist->p99_micros);
    }
    for (const auto& [attack_class, count] : row.rejections_by_class) {
      counters["rejected." + attack_class] = static_cast<double>(count);
    }

    out << "\n    {\n      \"name\": \"FLEET_" << EscapeJson(row.spec.name)
        << "\",\n      \"params\": \"" << EscapeJson(Params(row.spec))
        << "\",\n      \"iterations\": " << row.events
        << ",\n      \"samples\": 1,\n      \"real_us\": {\"p50\": "
        << FormatDouble(p50) << ", \"p99\": " << FormatDouble(p99)
        << ", \"mean\": " << FormatDouble(mean) << "},\n"
        << "      \"counters\": {";
    bool first_counter = true;
    for (const auto& [name, value] : counters) {
      if (!first_counter) out << ",";
      first_counter = false;
      out << "\n        \"" << EscapeJson(name)
          << "\": " << FormatDouble(value);
    }
    out << "\n      }\n    }";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

Status WriteFleetBenchJson(const FleetReport& report,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << FleetBenchJson(report);
  out.flush();
  if (!out) return Status::IOError("short write to '" + path + "'");
  return Status::OK();
}

}  // namespace sim
}  // namespace discsec
