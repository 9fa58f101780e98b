#ifndef GPUPERF_OBS_CHROME_TRACE_H_
#define GPUPERF_OBS_CHROME_TRACE_H_

/**
 * @file
 * Shared Chrome trace-event JSON writer.
 *
 * Generalizes gpuexec/trace_export's single-profile exporter: any
 * module can emit complete spans ("X"), instants ("i"), and
 * process/thread-name metadata, then serialize one JSON document that
 * loads in chrome://tracing or https://ui.perfetto.dev.
 *
 * Events serialize eagerly, in the order they are added, so a document
 * built from deterministic inputs is bit-identical run to run — the
 * serving simulator records per-cell obs::SpanTracer buffers in
 * parallel and appends them here serially, which keeps `--trace-out`
 * byte-identical across `--jobs` values.
 *
 * Each event serializes in one pass into one reserved string: names are
 * escaped in place and numbers appended with std::to_chars
 * (common/string_util.h's appenders) — no printf and no temporary
 * strings, yet the bytes equal the printf formats the document has
 * always used (`%d`, `%.3f`).
 */

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace gpuperf::obs {

/** Accumulates trace events and serializes the JSON document. */
class ChromeTraceWriter {
 public:
  /** Emits a process_name metadata event for `pid`. */
  void SetProcessName(int pid, const std::string& name);

  /** process_name events so far; appenders number new pids after them. */
  int process_count() const { return process_count_; }

  /** Emits a thread_name metadata event for (pid, tid). */
  void SetThreadName(int pid, int tid, const std::string& name);

  /**
   * A complete span (phase "X"). `args_json` is the raw body of the
   * args object, e.g. `"\"layer\":\"conv1\""` (may be empty).
   */
  void AddComplete(const std::string& name, const std::string& category,
                   int pid, int tid, double ts_us, double dur_us,
                   const std::string& args_json = "");

  /** A thread-scoped instant event (phase "i"). */
  void AddInstant(const std::string& name, const std::string& category,
                  int pid, int tid, double ts_us,
                  const std::string& args_json = "");

  /**
   * A counter event (phase "C"): the values in `args_json` (e.g.
   * `"\"delta\":3"`) render as a stacked counter track under `pid`.
   * The flight recorder emits its timeline this way so counter tracks
   * overlay the span tracks of the same grid cell.
   */
  void AddCounter(const std::string& name, const std::string& category,
                  int pid, double ts_us, const std::string& args_json);

  /**
   * A key in the document's trailing metadata object; `json_value` is
   * raw JSON (already quoted if a string). Keys render in insertion
   * order.
   */
  void AddMetadata(const std::string& key, const std::string& json_value);

  std::size_t event_count() const { return events_.size(); }

  /** The full JSON document. */
  std::string Json() const;

  /** Writes Json() to `path`; unwritable path is an Unavailable error. */
  [[nodiscard]] Status WriteFile(const std::string& path) const;

  /**
   * Appends `text` escaped for embedding in a JSON string: `"` and `\`
   * get a backslash, \n \r \t their short forms, other control bytes
   * `\u00XX`. Runs needing no escape are copied whole.
   */
  static void AppendJsonEscaped(std::string& out, std::string_view text);

  /** AppendJsonEscaped into a fresh string. */
  static std::string JsonEscape(const std::string& text);

 private:
  std::vector<std::string> events_;  // serialized, insertion order
  std::vector<std::pair<std::string, std::string>> metadata_;
  int process_count_ = 0;
};

}  // namespace gpuperf::obs

#endif  // GPUPERF_OBS_CHROME_TRACE_H_
