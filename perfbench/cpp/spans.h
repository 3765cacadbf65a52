// In-memory spans for the traced runs.
//
// A span is one timed call into a layer: its layer, its nesting depth on the
// recording thread, and its start and end on the steady clock. Spans are
// appended in start order, so a span's parent is the closest earlier span one
// level shallower; no parent index needs storing. Each thread records into its
// own SpanRecorder. Spans stay in memory until the run ends, when Summarize()
// folds them into per-layer totals and WriteSpans() saves them.

#ifndef PERFBENCH_CPP_SPANS_H_
#define PERFBENCH_CPP_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kSimRun,        // root: Network::Run
  kCcAck,         // CongestionController::OnAck
  kCcLoss,        // CongestionController::OnLoss
  kCoreMtp,       // AstraeaController::OnMtpTick
  kNnInfer,       // Policy::Act
  kQueue,         // QueueDiscipline::Enqueue / Dequeue
  kTrain,         // root: VectorizedTrainer::Train
  kServeRequest,  // root: ServeClient::RequestDetailed
};
inline constexpr size_t kLayerCount = 8;

struct Span {
  uint64_t start_ns;
  uint64_t end_ns : 48;  // ns since the recorder's origin: ~78 hours of range
  uint64_t layer : 8;
  uint64_t depth : 8;
};
static_assert(sizeof(Span) == 16);

class SpanRecorder {
 public:
  // Recorders that share an origin produce comparable timestamps.
  explicit SpanRecorder(
      std::chrono::steady_clock::time_point origin = std::chrono::steady_clock::now())
      : origin_(origin) {}

  size_t Begin(Layer layer) {
    spans_.push_back(Span{Now(), 0, static_cast<uint64_t>(layer), depth_++});
    return spans_.size() - 1;
  }
  void End(size_t index) {
    spans_[index].end_ns = Now();
    --depth_;
  }

  void Reserve(size_t n) { spans_.reserve(n); }
  void Clear() { spans_.clear(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t Now() const {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - origin_)
                                     .count());
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  uint8_t depth_ = 0;
};

// Times one call. A null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->Begin(layer) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  size_t index_;
};

struct LayerTotals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;  // sum of span durations
  uint64_t self_ns = 0;   // durations minus the time direct children cover
};

struct SpanSummary {
  std::array<LayerTotals, kLayerCount> layers{};
  uint64_t root_ns = 0;  // sum of depth-0 span durations
  // Every span closed, every child inside its parent, and children never
  // cover more than their parent: then the self times add up to root_ns.
  bool well_formed = true;

  const LayerTotals& operator[](Layer layer) const { return layers[static_cast<size_t>(layer)]; }
  uint64_t SelfSum() const;
  void Merge(const SpanSummary& other);
};

SpanSummary Summarize(const std::vector<Span>& spans);

// Durations (ns) of every span of one layer, in start order.
std::vector<uint64_t> Durations(const std::vector<Span>& spans, Layer layer);

// Writes spans as a flat binary file (the 16-byte records above); returns
// false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_SPANS_H_
