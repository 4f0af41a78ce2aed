#include "obs/trace.hpp"

#include <chrono>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace malnet::obs {

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string hex_id(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "0x";
  for (int i = 15; i >= 0; --i) out += kHex[(v >> (i * 4)) & 0xF];
  return out;
}

void Tracer::push(TraceEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

void Tracer::instant(std::string name, std::string category, std::string args_json) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.phase = 'i';
  ev.sim_us = now_sim_us();
  ev.wall_us = wall_now_us();
  ev.args_json = std::move(args_json);
  push(std::move(ev));
}

void Tracer::complete(std::string name, std::string category,
                      std::int64_t start_sim_us, std::string args_json) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.phase = 'X';
  ev.sim_us = start_sim_us;
  ev.dur_us = now_sim_us() - start_sim_us;
  ev.wall_us = wall_now_us();
  ev.args_json = std::move(args_json);
  push(std::move(ev));
}

void Tracer::span(std::string name, std::string category,
                  std::int64_t start_wall_us, std::int64_t dur_us,
                  std::uint64_t trace_id, std::uint64_t span_id,
                  std::string args_json) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.phase = 'X';
  ev.clock = 'w';
  ev.wall_us = start_wall_us;
  ev.dur_us = dur_us;
  ev.trace_id = trace_id;
  ev.span_id = span_id;
  ev.args_json = std::move(args_json);
  push(std::move(ev));
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<TraceEvent> Tracer::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(events_, {});
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& ev : events) {
    if (!first) os << ',';
    first = false;
    // Wall-clock spans live on the wall timeline; sim spans keep sim "ts"
    // and carry wall-clock in args as before.
    const bool wall = ev.clock == 'w';
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
       << json_escape(ev.category) << "\",\"ph\":\"" << ev.phase
       << "\",\"ts\":" << (wall ? ev.wall_us : ev.sim_us);
    if (ev.phase == 'X') os << ",\"dur\":" << ev.dur_us;
    os << ",\"pid\":" << ev.pid << ",\"tid\":\"" << json_escape(ev.category)
       << "\"";
    // Instant events need an explicit scope for Chrome's renderer.
    if (ev.phase == 'i') os << ",\"s\":\"t\"";
    os << ",\"args\":{";
    bool first_arg = true;
    if (!wall) {
      os << "\"wall_us\":" << ev.wall_us;
      first_arg = false;
    }
    if (ev.trace_id != 0) {
      if (!first_arg) os << ',';
      first_arg = false;
      os << "\"trace\":\"" << hex_id(ev.trace_id) << "\",\"span\":\""
         << hex_id(ev.span_id) << '"';
    }
    if (!ev.args_json.empty()) {
      if (!first_arg) os << ',';
      os << ev.args_json;
    }
    os << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  write_chrome_trace(os, events);
  return os.str();
}

std::optional<std::string> merge_chrome_traces(
    const std::vector<std::pair<std::string, std::string>>& node_docs) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t node = 0; node < node_docs.size(); ++node) {
    const auto& [label, doc] = node_docs[node];
    const auto parsed = json::parse(doc);
    if (!parsed) return std::nullopt;
    const json::Value* events = parsed->find("traceEvents");
    if (events == nullptr || events->type != json::Value::Type::kArray) {
      return std::nullopt;
    }
    if (!first) os << ',';
    first = false;
    // One process lane per node, named after its label.
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << node
       << ",\"args\":{\"name\":\"" << json_escape(label) << "\"}}";
    for (const auto& ev : events->array) {
      if (ev.type != json::Value::Type::kObject) return std::nullopt;
      json::Value restamped = ev;
      json::Value pid;
      pid.type = json::Value::Type::kNumber;
      pid.number = static_cast<double>(node);
      restamped.object["pid"] = pid;
      os << ',' << json::write(restamped);
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

}  // namespace malnet::obs
