#include "obs/chrome_trace.h"

#include <cstdio>

#include "common/string_util.h"

namespace gpuperf::obs {

void ChromeTraceWriter::AppendJsonEscaped(std::string& out,
                                          std::string_view text) {
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        // Remaining control characters are invalid raw inside a JSON
        // string (chrome://tracing rejects the file); \u-escape them.
        constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
        out.append(escaped, sizeof(escaped));
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

std::string ChromeTraceWriter::JsonEscape(const std::string& text) {
  std::string out;
  AppendJsonEscaped(out, text);
  return out;
}

namespace {

// Room for an event's fixed JSON keys and its numbers; the variable
// parts (names, args) are added on top.
constexpr std::size_t kEventBytes = 128;

/**
 * Adds a span or counter event to `events`, reserved for its whole
 * length, holding `{"name":"<name>","cat":"<category>` (both escaped);
 * the caller appends the phase and numbers, then calls EndEvent.
 */
std::string& BeginEvent(std::vector<std::string>& events,
                        const std::string& name, const std::string& category,
                        const std::string& args_json) {
  std::string& event = events.emplace_back();
  event.reserve(kEventBytes + name.size() + category.size() +
                args_json.size());
  event += "{\"name\":\"";
  ChromeTraceWriter::AppendJsonEscaped(event, name);
  event += "\",\"cat\":\"";
  ChromeTraceWriter::AppendJsonEscaped(event, category);
  return event;
}

/** Appends `,"args":{<args_json>}}`, closing the event. */
void EndEvent(std::string& event, const std::string& args_json) {
  event += ",\"args\":{";
  event += args_json;
  event += "}}";
}

}  // namespace

void ChromeTraceWriter::SetProcessName(int pid, const std::string& name) {
  ++process_count_;
  std::string& event = events_.emplace_back();
  event.reserve(kEventBytes + name.size());
  event += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  AppendInt(event, pid);
  event += ",\"args\":{\"name\":\"";
  AppendJsonEscaped(event, name);
  event += "\"}}";
}

void ChromeTraceWriter::SetThreadName(int pid, int tid,
                                      const std::string& name) {
  std::string& event = events_.emplace_back();
  event.reserve(kEventBytes + name.size());
  event += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
  AppendInt(event, pid);
  event += ",\"tid\":";
  AppendInt(event, tid);
  event += ",\"args\":{\"name\":\"";
  AppendJsonEscaped(event, name);
  event += "\"}}";
}

void ChromeTraceWriter::AddComplete(const std::string& name,
                                    const std::string& category, int pid,
                                    int tid, double ts_us, double dur_us,
                                    const std::string& args_json) {
  std::string& event = BeginEvent(events_, name, category, args_json);
  event += "\",\"ph\":\"X\",\"pid\":";
  AppendInt(event, pid);
  event += ",\"tid\":";
  AppendInt(event, tid);
  event += ",\"ts\":";
  AppendFixed3(event, ts_us);
  event += ",\"dur\":";
  AppendFixed3(event, dur_us);
  EndEvent(event, args_json);
}

void ChromeTraceWriter::AddInstant(const std::string& name,
                                   const std::string& category, int pid,
                                   int tid, double ts_us,
                                   const std::string& args_json) {
  std::string& event = BeginEvent(events_, name, category, args_json);
  event += "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":";
  AppendInt(event, pid);
  event += ",\"tid\":";
  AppendInt(event, tid);
  event += ",\"ts\":";
  AppendFixed3(event, ts_us);
  EndEvent(event, args_json);
}

void ChromeTraceWriter::AddCounter(const std::string& name,
                                   const std::string& category, int pid,
                                   double ts_us,
                                   const std::string& args_json) {
  std::string& event = BeginEvent(events_, name, category, args_json);
  event += "\",\"ph\":\"C\",\"pid\":";
  AppendInt(event, pid);
  event += ",\"tid\":0,\"ts\":";
  AppendFixed3(event, ts_us);
  EndEvent(event, args_json);
}

void ChromeTraceWriter::AddMetadata(const std::string& key,
                                    const std::string& json_value) {
  metadata_.emplace_back(key, json_value);
}

std::string ChromeTraceWriter::Json() const {
  std::string json = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    json += events_[i];
    if (i + 1 < events_.size()) json += ",";
    json += "\n";
  }
  json += "],\"displayTimeUnit\":\"ms\"";
  if (!metadata_.empty()) {
    json += ",\"metadata\":{";
    for (std::size_t i = 0; i < metadata_.size(); ++i) {
      if (i > 0) json += ",";
      json += '"';
      json += JsonEscape(metadata_[i].first);
      json += "\":";
      json += metadata_[i].second;
    }
    json += "}";
  }
  json += "}\n";
  return json;
}

Status ChromeTraceWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return UnavailableError("cannot open trace file: " + path);
  }
  const std::string json = Json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return UnavailableError("cannot write trace file: " + path);
  }
  return Status::Ok();
}

}  // namespace gpuperf::obs
