#include "tracer.h"

#include <algorithm>

namespace perfbench {

const char* LayerOf(const std::string& name) {
  if (name == "view.recompute" || name == "ivm.fold") return "query";
  if (name == "raster.frame") return "render";
  if (name == "snapshot.write" || name.rfind("wal.", 0) == 0) return "durability";
  return nullptr;
}

SpanDrain::SpanDrain() {
  std::vector<dvms::obs::SpanRow> ring = dvms::obs::SnapshotSpans();
  if (!ring.empty()) last_id_ = ring.back().id;
}

void SpanDrain::Drain() {
  std::vector<dvms::obs::SpanRow> ring = dvms::obs::SnapshotSpans();
  if (ring.empty()) return;
  size_t first_new = 0;
  if (last_id_ != 0) {
    size_t i = ring.size();
    while (i > 0 && ring[i - 1].id != last_id_) --i;
    if (i > 0) {
      first_new = i;
    } else {
      // The previous drain's newest span was evicted: everything between
      // it and the oldest retained span is lost.
      uint64_t oldest = ring.front().id;
      for (const dvms::obs::SpanRow& s : ring) oldest = std::min(oldest, s.id);
      dropped_ += oldest > last_id_ + 1 ? oldest - last_id_ - 1 : 1;
    }
  } else if (ring.size() >= dvms::obs::kSpanRingCapacity) {
    dropped_ += 1;  // a full ring on the first drain may have lost spans
  }
  last_id_ = ring.back().id;
  std::vector<dvms::obs::SpanRow> batch = std::move(pending_);
  pending_.clear();
  batch.insert(batch.end(), ring.begin() + static_cast<std::ptrdiff_t>(first_new),
               ring.end());
  Fold(batch);
}

void SpanDrain::Fold(const std::vector<dvms::obs::SpanRow>& batch) {
  std::unordered_map<uint64_t, Node> nodes;
  nodes.reserve(batch.size());
  for (const dvms::obs::SpanRow& s : batch) {
    nodes[s.id] = Node{s.parent, s.name, static_cast<double>(s.dur_us) / 1000.0};
  }
  // Time covered by outermost layer spans, per ancestor id.
  std::unordered_map<uint64_t, double> covered;
  std::vector<const dvms::obs::SpanRow*> complete;
  complete.reserve(batch.size());
  for (const dvms::obs::SpanRow& s : batch) {
    // Walk to the root; a missing ancestor is still running on its thread.
    bool same_name_above = false;
    bool layer_above = false;
    uint64_t id = s.parent;
    std::string root = s.name;
    bool whole = true;
    while (id != 0) {
      auto it = nodes.find(id);
      if (it == nodes.end()) {
        whole = false;
        break;
      }
      same_name_above = same_name_above || it->second.name == s.name;
      layer_above = layer_above || LayerOf(it->second.name) != nullptr;
      root = it->second.name;
      id = it->second.parent;
    }
    if (!whole) {
      pending_.push_back(s);
      continue;
    }
    complete.push_back(&s);
    const double ms = static_cast<double>(s.dur_us) / 1000.0;
    if (!same_name_above) {
      SpanTotal& t = totals_[{root, s.name}];
      ++t.count;
      t.ms += ms;
    }
    const char* layer = LayerOf(s.name);
    if (layer != nullptr && !layer_above) {
      for (uint64_t a = s.parent; a != 0; a = nodes[a].parent) covered[a] += ms;
      SpanTotal& t = layers_[{root, layer}];
      ++t.count;
      t.ms += ms;
    }
  }
  for (const dvms::obs::SpanRow* s : complete) {
    SpanTotal& t = self_[s->name];
    ++t.count;
    auto it = covered.find(s->id);
    t.ms += static_cast<double>(s->dur_us) / 1000.0 -
            (it == covered.end() ? 0.0 : it->second);
  }
}

SpanTotal SpanDrain::Total(const std::string& root, const std::string& name) const {
  auto it = totals_.find({root, name});
  return it == totals_.end() ? SpanTotal{} : it->second;
}

SpanTotal SpanDrain::Layer(const std::string& root, const std::string& layer) const {
  auto it = layers_.find({root, layer});
  return it == layers_.end() ? SpanTotal{} : it->second;
}

SpanTotal SpanDrain::Self(const std::string& name) const {
  auto it = self_.find(name);
  return it == self_.end() ? SpanTotal{} : it->second;
}

void SpanDrain::ClearTotals() {
  totals_.clear();
  layers_.clear();
  self_.clear();
}

std::map<std::string, double> MetricValues() {
  std::map<std::string, double> out;
  for (const dvms::obs::MetricRow& m : dvms::obs::SnapshotMetrics()) {
    if (m.kind == "counter") {
      out[m.name] = static_cast<double>(m.count);
    } else {
      out[m.name + ".sum"] = m.sum;
      out[m.name + ".count"] = static_cast<double>(m.count);
    }
  }
  return out;
}

double Delta(const std::map<std::string, double>& a,
             const std::map<std::string, double>& b, const std::string& name) {
  auto ia = a.find(name);
  auto ib = b.find(name);
  return (ib == b.end() ? 0.0 : ib->second) - (ia == a.end() ? 0.0 : ia->second);
}

}  // namespace perfbench
