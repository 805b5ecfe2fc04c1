#include "columnar/buffer.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {

namespace {

// Resolved once; the registry is a leaked singleton (metrics.cc) so these
// handles stay valid for buffers destroyed during process teardown.
struct BufMetrics {
  obs::Counter* bytes_allocated;
  obs::Counter* bytes_copied;
  obs::Counter* zero_copy_slices;
  obs::Counter* string_arenas;
  obs::Counter* string_payload_bytes;
  obs::Gauge* buffers_live;
};

const BufMetrics& Metrics() {
  static const BufMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::Default();
    auto* out = new BufMetrics{
        reg.GetCounter(METRIC_BUF_BYTES_ALLOCATED),
        reg.GetCounter(METRIC_BUF_BYTES_COPIED),
        reg.GetCounter(METRIC_BUF_ZERO_COPY_SLICES),
        reg.GetCounter(METRIC_BUF_STRING_ARENAS),
        reg.GetCounter(METRIC_BUF_STRING_PAYLOAD_BYTES),
        reg.GetGauge(METRIC_BUF_BUFFERS_LIVE),
    };
    return out;
  }();
  return *m;
}

thread_local BufferPool* g_current_pool = nullptr;

}  // namespace

BufferPool::BufferPool() : counters_(std::make_shared<Counters>()) {}

BufferPool& BufferPool::Default() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

BufferPool& BufferPool::Current() {
  return g_current_pool ? *g_current_pool : Default();
}

BufferPool::Stats BufferPool::snapshot() const {
  Stats s;
  s.bytes_allocated = counters_->bytes_allocated.load(std::memory_order_relaxed);
  s.bytes_copied = counters_->bytes_copied.load(std::memory_order_relaxed);
  s.buffers_live = counters_->buffers_live.load(std::memory_order_relaxed);
  s.zero_copy_slices =
      counters_->zero_copy_slices.load(std::memory_order_relaxed);
  s.string_arenas = counters_->string_arenas.load(std::memory_order_relaxed);
  s.string_payload_bytes =
      counters_->string_payload_bytes.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::CountAlloc(uint64_t bytes) {
  counters_->bytes_allocated.fetch_add(bytes, std::memory_order_relaxed);
  buffer_internal::MirrorToMetrics(0, bytes);
}

void BufferPool::CountCopy(uint64_t bytes) {
  counters_->bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
  buffer_internal::MirrorToMetrics(1, bytes);
}

void BufferPool::CountSlice() {
  counters_->zero_copy_slices.fetch_add(1, std::memory_order_relaxed);
  buffer_internal::MirrorToMetrics(2, 1);
}

void BufferPool::CountStringArena(uint64_t payload_bytes) {
  counters_->string_arenas.fetch_add(1, std::memory_order_relaxed);
  counters_->string_payload_bytes.fetch_add(payload_bytes,
                                            std::memory_order_relaxed);
  buffer_internal::MirrorToMetrics(3, 1);
  buffer_internal::MirrorToMetrics(4, payload_bytes);
}

ScopedBufferPool::ScopedBufferPool(BufferPool* pool) : prev_(g_current_pool) {
  g_current_pool = pool;
}

ScopedBufferPool::~ScopedBufferPool() { g_current_pool = prev_; }

namespace buffer_internal {

void MirrorToMetrics(int kind, uint64_t delta) {
  // kind follows Buffer<T>::MetricKind: 0=alloc, 1=copy, 2=slice, plus
  // 3=string arena, 4=string payload bytes (string_buffer.h). Counter adds
  // are commutative, so totals read at serial points are deterministic.
  switch (kind) {
    case 0:
      Metrics().bytes_allocated->Add(delta);
      break;
    case 1:
      Metrics().bytes_copied->Add(delta);
      break;
    case 2:
      Metrics().zero_copy_slices->Add(delta);
      break;
    case 3:
      Metrics().string_arenas->Add(delta);
      break;
    case 4:
      Metrics().string_payload_bytes->Add(delta);
      break;
  }
}

// Live-buffer count is a gauge (point-in-time, control-plane): updates
// bypass the delta mechanism like every other gauge.
void OnStorageAllocated() { Metrics().buffers_live->Add(1); }
void OnStorageFreed() { Metrics().buffers_live->Add(-1); }

}  // namespace buffer_internal

}  // namespace biglake
