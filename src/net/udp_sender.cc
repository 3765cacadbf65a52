#include "src/net/udp_sender.h"

#include <poll.h>
#include <sys/epoll.h>

#include <algorithm>
#include <cmath>

#include "src/ipc/shm_ring.h"
#include "src/util/logging.h"

namespace astraea {
namespace net {
namespace {

// FIN handshake: retransmit cadence and give-up bound. A dead receiver costs
// kFinRetries * kFinInterval before the sender reports fin_acked = false.
constexpr TimeNs kFinInterval = Milliseconds(100);
constexpr int kFinRetries = 8;
// A still-outstanding frame is lost once this many frames beyond it have been
// acknowledged (dup-ACK analogue of the simulator's FIFO gap rule, tolerant
// of real-network reordering).
constexpr uint64_t kReorderThreshold = 3;

}  // namespace

UdpSender::UdpSender(std::unique_ptr<CongestionController> cc, UdpSenderConfig config)
    : cc_(std::move(cc)), config_(config) {
  ASTRAEA_CHECK(config_.mss > kDataHeaderBytes && config_.mss <= kMaxFrameBytes);
  payload_per_frame_ = static_cast<uint16_t>(config_.mss - kDataHeaderBytes);
  if (config_.total_bytes > 0) {
    frames_total_ = (config_.total_bytes + payload_per_frame_ - 1) / payload_per_frame_;
  }
}

UdpSender::~UdpSender() = default;

void UdpSender::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (stop_event_.valid()) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(stop_event_.get(), &one, sizeof(one));
  }
}

bool UdpSender::HaveDataToSend() const {
  return frames_total_ == 0 || transport_.next_seq() < frames_total_;
}

void UdpSender::SendDataFrame(TimeNs now) {
  DataFrame frame;
  frame.flow_id = config_.flow_id;
  frame.seq = transport_.Send(now);
  frame.send_time = now;
  frame.payload_len = payload_per_frame_;
  frame.sent_bytes_total = report_.bytes_sent;  // this frame included
  frame.sent_frames_total = ++report_.frames_sent;

  uint8_t buf[kMaxFrameBytes];
  const size_t len = SerializeData(frame, buf, sizeof(buf));
  ASTRAEA_CHECK(len == config_.mss);
  // Non-blocking send: if the kernel socket buffer is full (EAGAIN) the
  // datagram is treated as sent-and-dropped — indistinguishable from a
  // first-hop queue drop, which is exactly what it is.
  ::sendto(socket_.get(), buf, len, 0, reinterpret_cast<const sockaddr*>(&dest_),
           sizeof(dest_));
}

void UdpSender::PumpSends(TimeNs now) {
  const bool paced = cc_->pacing_bps().has_value();
  while (HaveDataToSend() && transport_.WindowOpen(cc_->cwnd_bytes())) {
    if (paced) {
      if (next_send_time_ > now) {
        ArmTimerAt(pace_timer_.get(), next_send_time_);
        return;
      }
      SendDataFrame(now);
      const double rate = cc_->pacing_bps().value_or(0.0);
      if (rate > 0.0) {
        // Allow up to 1ms of catch-up credit so epoll wake-up jitter does
        // not starve the configured rate, but never a larger burst.
        next_send_time_ = std::max(next_send_time_, now - Milliseconds(1)) +
                          TransmissionDelay(config_.mss, rate);
      }
    } else {
      SendDataFrame(now);  // ACK-clocked: fill the window
    }
  }
  DisarmTimer(pace_timer_.get());
}

void UdpSender::DetectSackLosses(TimeNs now) {
  if (!any_acked_ || max_acked_seq_ < kReorderThreshold) {
    return;
  }
  if (const std::optional<LossEvent> loss =
          transport_.WriteOffBefore(now, max_acked_seq_ - kReorderThreshold)) {
    ++report_.gap_loss_events;
    cc_->OnLoss(*loss);
  }
}

void UdpSender::OnAckFrame(const AckFrame& ack, TimeNs now) {
  ++report_.acks_received;
  if (ack.flow_id != config_.flow_id) {
    return;
  }
  // The ACK covers ack_seq plus the 64-frame history window behind it (bit i
  // => ack_seq - 1 - i received). Outstanding is seq-ordered, so the sweep
  // stops at the first sequence past ack_seq; already-resolved frames simply
  // are not in the list (later redundant coverage is a no-op).
  const std::deque<FlowTransport::Outstanding>& outstanding = transport_.outstanding();
  for (size_t i = 0; i < outstanding.size() && outstanding[i].seq <= ack.ack_seq;) {
    const FlowTransport::Outstanding pkt = outstanding[i];
    bool covered = pkt.seq == ack.ack_seq;
    if (!covered && ack.ack_seq - pkt.seq - 1 < 64) {
      covered = (ack.sack_bitmap >> (ack.ack_seq - pkt.seq - 1)) & 1;
    }
    if (!covered) {
      ++i;
      continue;
    }
    TimeNs rtt = std::max<TimeNs>(now - pkt.sent_time, 1);
    // QUIC-style delayed-ACK correction for the frame the receiver echoed:
    // its hold time is known exactly. Older frames covered by the same ACK
    // keep the uncorrected sample (their hold is bounded by ack_delay anyway).
    if (pkt.seq == ack.ack_seq && ack.ack_delay > 0 && ack.ack_delay < rtt) {
      rtt -= ack.ack_delay;
    }
    ++report_.frames_acked;
    any_acked_ = true;
    max_acked_seq_ = std::max(max_acked_seq_, pkt.seq);
    rtt_samples_ms_.push_back(static_cast<float>(ToMillis(rtt)));
    cc_->OnAck(transport_.Ack(i, now, rtt));
  }
  DetectSackLosses(now);
  PumpSends(now);
  ArmTimerAt(rto_timer_.get(), transport_.RtoDeadline());
}

void UdpSender::OnRtoCheck(TimeNs now) {
  if (transport_.outstanding().empty()) {
    return;
  }
  if (now < transport_.RtoDeadline()) {
    ArmTimerAt(rto_timer_.get(), transport_.RtoDeadline());
    return;
  }
  ++report_.rto_fires;
  cc_->OnLoss(transport_.WriteOffAll(now));
  PumpSends(now);
  ArmTimerAt(rto_timer_.get(), transport_.RtoDeadline());
}

void UdpSender::MtpTick(TimeNs now) {
  ++report_.mtp_ticks;
  cc_->OnMtpTick(transport_.CloseInterval(now, config_.mtp, *cc_));
  PumpSends(now);  // the controller may have opened the window
  // Fixed cadence (catch up if the loop fell behind a full period).
  next_mtp_time_ += config_.mtp;
  if (next_mtp_time_ <= now) {
    next_mtp_time_ = now + config_.mtp;
  }
  ArmTimerAt(mtp_timer_.get(), next_mtp_time_);
}

bool UdpSender::Run() {
  if (!ResolveIpv4(config_.host, config_.port, &dest_)) {
    ASTRAEA_LOG(Error) << "net sender: bad destination " << config_.host << ":" << config_.port;
    return false;
  }
  socket_ = CreateUdpSocket(0);
  stop_event_.Reset(::eventfd(0, EFD_NONBLOCK));
  pace_timer_ = CreateMonotonicTimer();
  mtp_timer_ = CreateMonotonicTimer();
  rto_timer_ = CreateMonotonicTimer();
  if (!socket_.valid() || !stop_event_.valid() || !pace_timer_.valid() || !mtp_timer_.valid() ||
      !rto_timer_.valid()) {
    ASTRAEA_LOG(Error) << "net sender: fd setup failed";
    return false;
  }

  UniqueFd epoll(::epoll_create1(0));
  if (!epoll.valid()) {
    return false;
  }
  for (int fd : {socket_.get(), stop_event_.get(), pace_timer_.get(), mtp_timer_.get(),
                 rto_timer_.get()}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &ev);
  }

  const TimeNs started = ipc::MonotonicNowNs();
  transport_.Start(started);
  next_send_time_ = started;
  next_mtp_time_ = started + config_.mtp;
  cc_->OnFlowStart(started, config_.mss);
  ArmTimerAt(mtp_timer_.get(), next_mtp_time_);
  ArmTimerAt(rto_timer_.get(), transport_.RtoDeadline());
  PumpSends(started);

  uint8_t buf[kMaxFrameBytes];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    TimeNs now = ipc::MonotonicNowNs();
    if (config_.max_runtime > 0 && now - started >= config_.max_runtime) {
      break;
    }
    if (!HaveDataToSend() && transport_.outstanding().empty()) {
      report_.completed = true;
      break;
    }

    epoll_event events[8];
    const int n = ::epoll_wait(epoll.get(), events, 8, /*timeout_ms=*/250);
    now = ipc::MonotonicNowNs();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == stop_event_.get()) {
        DrainEventFd(stop_event_.get());
      } else if (fd == pace_timer_.get()) {
        DrainEventFd(pace_timer_.get());
        PumpSends(now);
      } else if (fd == mtp_timer_.get()) {
        DrainEventFd(mtp_timer_.get());
        MtpTick(now);
      } else if (fd == rto_timer_.get()) {
        DrainEventFd(rto_timer_.get());
        OnRtoCheck(now);
      } else if (fd == socket_.get()) {
        while (true) {
          const ssize_t got = ::recv(socket_.get(), buf, sizeof(buf), 0);
          if (got < 0) {
            break;  // EAGAIN
          }
          ParsedFrame frame;
          if (ParseFrame(buf, static_cast<size_t>(got), &frame) != ParseStatus::kOk) {
            ++report_.corrupt_acks;
            continue;
          }
          if (frame.type == FrameType::kAck) {
            OnAckFrame(frame.ack, ipc::MonotonicNowNs());
          }
          // Stray FIN-ACKs outside the handshake are ignored.
        }
      }
    }
  }

  if (report_.completed) {
    RunFinHandshake();
  }
  FinishReport(started);
  return report_.completed;
}

void UdpSender::RunFinHandshake() {
  FinFrame fin;
  fin.flow_id = config_.flow_id;
  fin.final_seq = transport_.next_seq();
  uint8_t out[kFinFrameBytes];
  const size_t out_len = SerializeFin(fin, /*is_ack=*/false, out, sizeof(out));
  uint8_t in[kMaxFrameBytes];
  for (int attempt = 0; attempt < kFinRetries && !stop_requested_.load(); ++attempt) {
    ::sendto(socket_.get(), out, out_len, 0, reinterpret_cast<const sockaddr*>(&dest_),
             sizeof(dest_));
    const TimeNs deadline = ipc::MonotonicNowNs() + kFinInterval;
    while (ipc::MonotonicNowNs() < deadline) {
      pollfd pfd{socket_.get(), POLLIN, 0};
      const TimeNs left = deadline - ipc::MonotonicNowNs();
      if (::poll(&pfd, 1, static_cast<int>(std::max<TimeNs>(left / kNanosPerMilli, 1))) <= 0) {
        continue;
      }
      const ssize_t got = ::recv(socket_.get(), in, sizeof(in), 0);
      if (got < 0) {
        continue;
      }
      ParsedFrame frame;
      if (ParseFrame(in, static_cast<size_t>(got), &frame) == ParseStatus::kOk &&
          frame.type == FrameType::kFinAck) {
        report_.fin_acked = true;
        return;
      }
    }
  }
}

void UdpSender::FinishReport(TimeNs started) {
  report_.elapsed = ipc::MonotonicNowNs() - started;
  if (!rtt_samples_ms_.empty()) {
    std::sort(rtt_samples_ms_.begin(), rtt_samples_ms_.end());
    const size_t n = rtt_samples_ms_.size();
    report_.rtt_min_ms = rtt_samples_ms_.front();
    report_.rtt_p50_ms = rtt_samples_ms_[n / 2];
    report_.rtt_p95_ms = rtt_samples_ms_[std::min(n - 1, n * 95 / 100)];
  }
}

}  // namespace net
}  // namespace astraea
