#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/scenario.h"

namespace churnstore {

namespace {

/// Chrome span track: request latency is measured in rounds; render one
/// round as one millisecond of virtual time so Perfetto's zoom is usable.
constexpr double kRoundUs = 1000.0;

void append_num(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  s += buf;
}

void append_u64(std::string& s, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  s += buf;
}

/// u64 fields (trace ids especially) must not round-trip through double —
/// %.12g would corrupt ids above 2^40.
void append_kv_u64(std::string& s, const char* key, std::uint64_t v) {
  s += '"';
  s += key;
  s += "\":";
  append_u64(s, v);
}

void append_kv(std::string& s, const char* key, double v, bool ok = true) {
  s += '"';
  s += key;
  s += "\":";
  if (ok) {
    append_num(s, v);
  } else {
    s += "null";  // source unavailable: n/a, never a fake zero
  }
}

bool is_host_metric(const std::string& name) {
  return name.rfind("secs.", 0) == 0 || name.rfind("heap.", 0) == 0;
}

ObsConfig::Mode obs_mode(const std::string& mode) {
  if (mode == "jsonl") return ObsConfig::Mode::kJsonl;
  if (mode == "chrome") return ObsConfig::Mode::kChrome;
  if (mode == "off" || mode == "none" || mode.empty()) {
    return ObsConfig::Mode::kNone;
  }
  throw std::invalid_argument("obs= must be jsonl|chrome|off, got " + mode);
}

}  // namespace

ObsConfig obs_config_from_extras(
    const std::map<std::string, std::string>& extras) {
  ObsConfig cfg;
  cfg.mode = obs_mode(extras_string(extras, "obs", "off"));
  if (cfg.mode == ObsConfig::Mode::kNone) {
    for (const std::string_view key : kObsKeys) {
      if (key != "obs" && extras.count(std::string(key))) {
        throw std::invalid_argument(
            "spec key '" + std::string(key) +
            "' shapes observability output and needs obs=jsonl or "
            "obs=chrome; without it nothing is written");
      }
    }
  }
  cfg.path = extras_string(extras, "obs-file", "");
  const std::int64_t k = extras_int(extras, "trace-sample", 1);
  if (k < 0) throw std::invalid_argument("trace-sample= must be >= 0");
  cfg.sample_every = static_cast<std::uint32_t>(k);
  // obs-host=0 drops the wall-clock/heap fields: the remaining jsonl byte
  // stream is a pure function of the seed (S-invariance checkable by cmp).
  cfg.host_metrics = extras_int(extras, "obs-host", 1) != 0;
  return cfg;
}

void reject_obs_keys(const std::map<std::string, std::string>& extras) {
  for (const std::string_view key : kObsKeys) {
    const auto it = extras.find(std::string(key));
    if (it == extras.end()) continue;
    if (key == "obs" && obs_mode(it->second) == ObsConfig::Mode::kNone) {
      continue;
    }
    throw std::invalid_argument(
        "spec key '" + std::string(key) +
        "' asks for observability output, but this scenario attaches no "
        "session; the scenarios that export are chord, search, baselines, "
        "message_complexity, ablation and adversary");
  }
}

std::string obs_path_with_label(const std::string& path,
                                const std::string& label) {
  if (label.empty()) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + label;
  }
  return path.substr(0, dot) + "." + label + path.substr(dot);
}

ObsSession::ObsSession(P2PSystem& sys, ObsConfig config,
                       const std::string& label)
    : sys_(sys),
      config_(std::move(config)),
      trace_(sys.config().sim.seed,
             config_.sample_every == 0 ? 1 : config_.sample_every) {
  if (config_.mode == ObsConfig::Mode::kNone) {
    finalized_ = true;
    return;
  }
  if (config_.path.empty()) {
    config_.path = config_.mode == ObsConfig::Mode::kJsonl ? "obs.jsonl"
                                                           : "obs_trace.json";
  }
  config_.path = obs_path_with_label(config_.path, label);
  out_.open(config_.path, std::ios::out | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("obs: cannot open output file " + config_.path);
  }

  trace_.bind(sys_.network());
  sys_.network().set_trace_collector(&trace_);
  trace_.set_consumer([this](Round round, const TraceEvent* ev,
                             std::size_t n) { consume_spans(round, ev, n); });
  register_standard_metrics(registry_, sys_);
  sys_.set_round_observer(this);

  if (config_.mode == ObsConfig::Mode::kChrome) {
    sys_.enable_phase_timing(true);
    prev_timers_ = sys_.phase_timers();
    prev_protocol_secs_ = sys_.protocol_secs();
    out_ << "{\"traceEvents\":[";
    // Track metadata: pid 0 = measured wall clock, pid 1 = virtual rounds.
    std::string meta;
    meta +=
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{"
        "\"name\":\"round phases (wall clock)\"}}";
    meta +=
        ",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{"
        "\"name\":\"request spans (virtual: 1 round = 1ms)\"}}";
    meta +=
        ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"phases\"}}";
    const auto& protocols = sys_.protocols();
    for (std::size_t pi = 0; pi < protocols.size(); ++pi) {
      meta += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
      append_num(meta, static_cast<double>(pi + 1));
      meta += ",\"args\":{\"name\":\"protocol: ";
      meta += std::string(protocols[pi]->name());
      meta += "\"}}";
    }
    for (std::size_t c = 0; c < kRequestClassCount; ++c) {
      meta += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      append_num(meta, static_cast<double>(c));
      meta += ",\"args\":{\"name\":\"";
      meta += request_class_name(static_cast<RequestClass>(c));
      meta += "\"}}";
    }
    out_ << meta;
    first_chrome_event_ = false;  // metadata already wrote the first events
  }
}

ObsSession::~ObsSession() { finalize(); }

std::optional<ObsSession> attach_obs_session(
    P2PSystem& sys, const std::map<std::string, std::string>& extras,
    const std::string& label) {
  ObsConfig config = obs_config_from_extras(extras);
  if (config.mode == ObsConfig::Mode::kNone) return std::nullopt;
  return std::optional<ObsSession>(std::in_place, sys, std::move(config),
                                   label);
}

void ObsSession::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (config_.mode == ObsConfig::Mode::kJsonl) {
    // Trailing summary object: per-class span counts + tail quantiles from
    // the drained histograms.
    std::string line = "{\"summary\":true";
    for (std::size_t c = 0; c < kRequestClassCount; ++c) {
      const auto cls = static_cast<RequestClass>(c);
      if (trace_.spans_begun(cls) == 0 && trace_.spans_ok(cls) == 0) continue;
      const std::string base = request_class_name(cls);
      line += ",\"" + base + "\":{";
      append_kv(line, "begun", static_cast<double>(trace_.spans_begun(cls)));
      line += ',';
      append_kv(line, "ok", static_cast<double>(trace_.spans_ok(cls)));
      line += ',';
      append_kv(line, "failed", static_cast<double>(trace_.spans_failed(cls)));
      line += ',';
      append_kv(line, "censored",
                static_cast<double>(trace_.spans_censored(cls)));
      const Histogram& lat = trace_.latency(cls);
      const Histogram& hops = trace_.hops(cls);
      const bool mass = lat.total() > 0;
      const auto quant = [&](const char* key, const Histogram& h, double q) {
        line += ',';
        append_kv(line, key, mass ? h.quantile(q) : 0.0, mass);
      };
      quant("latency_p50", lat, 0.50);
      quant("latency_p95", lat, 0.95);
      quant("latency_p99", lat, 0.99);
      quant("latency_p999", lat, 0.999);
      quant("hops_p50", hops, 0.50);
      quant("hops_p95", hops, 0.95);
      quant("hops_p99", hops, 0.99);
      line += '}';
    }
    line += ",";
    append_kv(line, "trace_events",
              static_cast<double>(trace_.events_recorded()));
    line += "}\n";
    out_ << line;
  } else if (config_.mode == ObsConfig::Mode::kChrome) {
    out_ << "]}";
  }
  if (out_.is_open()) out_.close();
  sys_.network().set_trace_collector(nullptr);
  sys_.set_round_observer(nullptr);
}

void ObsSession::on_round_observed(P2PSystem& sys) {
  if (finalized_) return;
  if (config_.mode == ObsConfig::Mode::kJsonl) {
    write_round_jsonl();
  } else {
    write_round_chrome(sys);
  }
}

void ObsSession::consume_spans(Round round, const TraceEvent* events,
                               std::size_t n) {
  (void)round;
  if (finalized_) return;
  std::string buf;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events[i];
    const auto ev = static_cast<TraceEv>(e.ev);
    const auto cls = static_cast<RequestClass>(e.cls);
    if (config_.mode == ObsConfig::Mode::kJsonl) {
      // One line per COMPLETED span; begins/hops are aggregated state.
      if (ev != TraceEv::kEndOk && ev != TraceEv::kEndFail &&
          ev != TraceEv::kEndCensored) {
        continue;
      }
      buf += "{\"span\":\"";
      buf += request_class_name(cls);
      buf += "\",\"outcome\":\"";
      buf += ev == TraceEv::kEndOk        ? "ok"
             : ev == TraceEv::kEndFail    ? "fail"
                                          : "censored";
      buf += "\",";
      append_kv_u64(buf, "trace", e.trace_id);
      buf += ',';
      append_kv_u64(buf, "end_round", e.round);
      buf += ',';
      append_kv_u64(buf, "vertex", e.vertex);
      buf += ',';
      append_kv_u64(buf, "latency_rounds", e.detail);
      buf += ',';
      append_kv_u64(buf, "hops", e.hop);
      buf += "}\n";
      continue;
    }
    // Chrome: end events render the whole span as one X slice on virtual
    // time; hop events render as instants inside it.
    if (ev == TraceEv::kEndOk || ev == TraceEv::kEndFail ||
        ev == TraceEv::kEndCensored) {
      const double start_us =
          (static_cast<double>(e.round) - static_cast<double>(e.detail)) *
          kRoundUs;
      buf += ",{\"name\":\"";
      buf += request_class_name(cls);
      buf += ev == TraceEv::kEndOk        ? ""
             : ev == TraceEv::kEndFail    ? " (fail)"
                                          : " (censored)";
      buf += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
      append_num(buf, static_cast<double>(e.cls));
      buf += ",\"ts\":";
      append_num(buf, start_us);
      buf += ",\"dur\":";
      append_num(buf, std::max(static_cast<double>(e.detail) * kRoundUs,
                               kRoundUs * 0.25));
      buf += ",\"args\":{";
      append_kv_u64(buf, "trace", e.trace_id);
      buf += ',';
      append_kv_u64(buf, "vertex", e.vertex);
      buf += ',';
      append_kv_u64(buf, "hops", e.hop);
      buf += "}}";
    } else if (ev == TraceEv::kHop) {
      buf += ",{\"name\":\"hop\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
      append_num(buf, static_cast<double>(e.cls));
      buf += ",\"ts\":";
      append_num(buf, static_cast<double>(e.round) * kRoundUs);
      buf += ",\"args\":{";
      append_kv_u64(buf, "trace", e.trace_id);
      buf += ',';
      append_kv_u64(buf, "vertex", e.vertex);
      buf += ',';
      append_kv_u64(buf, "kind", e.detail);
      buf += "}}";
    }
  }
  if (!buf.empty()) out_ << buf;
}

void ObsSession::write_round_jsonl() {
  std::string line = "{";
  append_kv(line, "round", static_cast<double>(sys_.network().round()));
  for (const MetricsRegistry::Sample& s : registry_.snapshot()) {
    if (!config_.host_metrics && is_host_metric(s.name)) continue;
    line += ',';
    append_kv(line, s.name.c_str(), s.value, s.ok);
  }
  line += "}\n";
  out_ << line;
}

void ObsSession::write_round_chrome(P2PSystem& sys) {
  const RoundPhaseTimers& t = sys.phase_timers();
  const std::vector<double>& proto = sys.protocol_secs();
  std::string buf;
  const auto slice = [&buf](const char* name, double pid, double tid,
                            double ts_us, double dur_us) {
    if (dur_us <= 0.0) return;
    buf += ",{\"name\":\"";
    buf += name;
    buf += "\",\"ph\":\"X\",\"pid\":";
    append_num(buf, pid);
    buf += ",\"tid\":";
    append_num(buf, tid);
    buf += ",\"ts\":";
    append_num(buf, ts_us);
    buf += ",\"dur\":";
    append_num(buf, dur_us);
    buf += "}";
  };
  const auto us = [](double secs) { return secs * 1e6; };

  const double churn = us(t.churn_secs - prev_timers_.churn_secs);
  const double soup = us(t.soup_secs - prev_timers_.soup_secs);
  const double handlers = us(t.handler_secs - prev_timers_.handler_secs);
  const double deliver = us(t.deliver_secs - prev_timers_.deliver_secs);
  const double dispatch = us(t.dispatch_secs - prev_timers_.dispatch_secs);

  double cursor = ts_cursor_us_;
  slice("churn", 0, 0, cursor, churn);
  cursor += churn;
  // Per-protocol breakdown of the soup+handler window, each protocol on
  // its own tid, laid out sequentially (they really do run sequentially).
  double proto_cursor = cursor;
  for (std::size_t pi = 0; pi < proto.size(); ++pi) {
    const double prev =
        pi < prev_protocol_secs_.size() ? prev_protocol_secs_[pi] : 0.0;
    const double dur = us(proto[pi] - prev);
    slice(std::string(sys.protocols()[pi]->name()).c_str(), 0,
          static_cast<double>(pi + 1), proto_cursor, dur);
    proto_cursor += dur;
  }
  slice("protocols", 0, 0, cursor, soup + handlers);
  cursor += soup + handlers;
  slice("deliver", 0, 0, cursor, deliver);
  cursor += deliver;
  slice("dispatch", 0, 0, cursor, dispatch);
  cursor += dispatch;
  ts_cursor_us_ = cursor;
  prev_timers_ = t;
  prev_protocol_secs_ = proto;
  if (!buf.empty()) out_ << buf;
}

}  // namespace churnstore
