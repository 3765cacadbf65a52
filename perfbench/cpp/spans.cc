#include "spans.h"

#include <fstream>

namespace perfbench {

uint64_t SpanSummary::SelfSum() const {
  uint64_t sum = 0;
  for (const LayerTotals& layer : layers) {
    sum += layer.self_ns;
  }
  return sum;
}

void SpanSummary::Merge(const SpanSummary& other) {
  for (size_t i = 0; i < kLayerCount; ++i) {
    layers[i].calls += other.layers[i].calls;
    layers[i].total_ns += other.layers[i].total_ns;
    layers[i].self_ns += other.layers[i].self_ns;
  }
  root_ns += other.root_ns;
  well_formed = well_formed && other.well_formed;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  struct Open {
    const Span* span;
    uint64_t child_ns;
  };
  SpanSummary summary;
  std::vector<Open> stack;
  auto close = [&summary](const Open& open) {
    const Span& s = *open.span;
    const uint64_t duration = s.end_ns - s.start_ns;
    LayerTotals& totals = summary.layers[s.layer];
    if (open.child_ns > duration) {
      summary.well_formed = false;
      return;
    }
    totals.self_ns += duration - open.child_ns;
  };
  for (const Span& span : spans) {
    if (span.end_ns < span.start_ns || span.depth > stack.size()) {
      summary.well_formed = false;
      continue;
    }
    while (stack.size() > span.depth) {
      close(stack.back());
      stack.pop_back();
    }
    const uint64_t duration = span.end_ns - span.start_ns;
    if (!stack.empty()) {
      const Span& parent = *stack.back().span;
      if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
        summary.well_formed = false;
      }
      stack.back().child_ns += duration;
    } else {
      summary.root_ns += duration;
    }
    LayerTotals& totals = summary.layers[span.layer];
    ++totals.calls;
    totals.total_ns += duration;
    stack.push_back({&span, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return summary;
}

std::vector<uint64_t> Durations(const std::vector<Span>& spans, Layer layer) {
  std::vector<uint64_t> out;
  for (const Span& span : spans) {
    if (span.layer == static_cast<uint64_t>(layer)) {
      out.push_back(span.end_ns - span.start_ns);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(spans.data()),
            static_cast<std::streamsize>(spans.size() * sizeof(Span)));
  return static_cast<bool>(out);
}

}  // namespace perfbench
