#include "tracer.h"

#include <utility>

#include "json.h"

namespace dmlbench {

double Tracer::Scope::Close() {
  Span& span = tracer_->spans_[static_cast<size_t>(id_)];
  if (open_) {
    open_ = false;
    span.end_s = tracer_->clock_.ElapsedSeconds();
    tracer_->open_.pop_back();
  }
  return span.seconds();
}

Tracer::Scope Tracer::Open(std::string name, std::string detail) {
  Span span;
  span.name = std::move(name);
  span.detail = std::move(detail);
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = clock_.ElapsedSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return Scope(this, spans_.back().id);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.seconds());
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (double seconds : Durations(name)) total += seconds;
  return total;
}

std::string Tracer::ChromeJson(const std::string& other_data) const {
  std::string events;
  for (const Span& span : spans_) {
    JsonObject args;
    args.Int("id", span.id).Int("parent", span.parent);
    args.Str("parent_name",
             span.parent < 0 ? "" : spans_[static_cast<size_t>(span.parent)].name);
    args.Num("end_us", span.end_s * 1e6);
    if (!span.detail.empty()) args.Str("detail", span.detail);
    JsonObject event;
    event.Str("name", span.name)
        .Str("cat", "dmlbench")
        .Str("ph", "X")
        .Num("ts", span.start_s * 1e6)
        .Num("dur", span.seconds() * 1e6)
        .Int("pid", 1)
        .Int("tid", 1)
        .Raw("args", args.str());
    if (!events.empty()) events += ",\n";
    events += event.str();
  }
  return "{\"displayTimeUnit\":\"ms\",\"otherData\":" + other_data +
         ",\"traceEvents\":[\n" + events + "\n]}\n";
}

}  // namespace dmlbench
