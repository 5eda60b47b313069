#include "obs/json.hpp"

#include <cstdio>

namespace tfo::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::separator() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_elems_.empty()) {
    if (has_elems_.back()) out_ += ',';
    has_elems_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += '{';
  has_elems_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  has_elems_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ += '[';
  has_elems_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  has_elems_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separator();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separator();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separator();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separator();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view fragment) {
  separator();
  out_ += fragment;
  return *this;
}

std::string metrics_json(std::string_view host, const Snapshot& snap) {
  JsonWriter w;
  w.begin_object();
  w.key("host").value(host);
  w.key("counters").begin_object();
  for (const auto& [name, v] : snap.counters) w.key(name).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : snap.gauges) {
    w.key(name).begin_object();
    w.key("value").value(g.value);
    w.key("max").value(g.max);
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name).begin_object();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    w.key("mean").value(h.mean);
    w.key("p50").value(h.p50);
    w.key("p99").value(h.p99);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string timeline_json(std::string_view host, const EventLog& log) {
  JsonWriter w;
  w.begin_array();
  for (const auto& e : log.events()) {
    w.begin_object();
    w.key("t_ns").value(static_cast<std::uint64_t>(e.t));
    w.key("host").value(host);
    w.key("event").value(to_string(e.kind));
    w.key("conn").value(e.conn == tcp::ConnKey{} ? std::string() : e.conn.str());
    w.key("detail").value(e.detail);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace tfo::obs
