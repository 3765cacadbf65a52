#include "src/net/udp_receiver.h"

#include <sys/epoll.h>

#include <algorithm>
#include <cstdio>

#include "src/ipc/shm_ring.h"
#include "src/util/logging.h"

namespace astraea {
namespace net {
namespace {

// After a FIN, keep answering retransmitted FINs for this long before
// exiting: a lost FIN-ACK would otherwise strand the sender in its
// retransmit loop until it gives up.
constexpr TimeNs kFinLinger = Milliseconds(250);

// How far behind the newest sequence a hole may trail before the cumulative
// point abandons it (bounds the out-of-order set; must comfortably exceed
// the sender's 3-frame reorder threshold and the 64-bit SACK history window).
constexpr uint64_t kGiveUpWindow = 256;

}  // namespace

bool UdpReceiver::Bind() {
  socket_ = CreateUdpSocket(config_.port);
  if (!socket_.valid()) {
    ASTRAEA_LOG(Warning) << "net receiver: bind to port " << config_.port << " failed";
    return false;
  }
  stop_event_.Reset(::eventfd(0, EFD_NONBLOCK));
  port_ = BoundPort(socket_.get());
  return stop_event_.valid() && port_ != 0;
}

void UdpReceiver::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (stop_event_.valid()) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(stop_event_.get(), &one, sizeof(one));
  }
}

bool UdpReceiver::Run() {
  if (!socket_.valid()) {
    return false;
  }
  UniqueFd epoll(::epoll_create1(0));
  if (!epoll.valid()) {
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = socket_.get();
  ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, socket_.get(), &ev);
  ev.data.fd = stop_event_.get();
  ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, stop_event_.get(), &ev);

  const TimeNs start = ipc::MonotonicNowNs();
  TimeNs last_activity = start;
  TimeNs fin_deadline = 0;  // set once a FIN arrives

  uint8_t buf[kMaxFrameBytes];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const TimeNs now = ipc::MonotonicNowNs();
    if (fin_deadline != 0 && now >= fin_deadline) {
      break;
    }
    if (config_.idle_timeout > 0 && now - last_activity >= config_.idle_timeout) {
      break;
    }

    // Next deadline: pending delayed ACK, FIN linger or idle timeout.
    TimeNs deadline = config_.idle_timeout > 0 ? last_activity + config_.idle_timeout
                                               : now + Seconds(1.0);
    if (unacked_frames_ > 0) {
      deadline = std::min(deadline, oldest_unacked_time_ + config_.ack_delay);
    }
    if (fin_deadline != 0) {
      deadline = std::min(deadline, fin_deadline);
    }
    const int timeout_ms =
        deadline <= now ? 0
                        : static_cast<int>(std::min<TimeNs>((deadline - now) / kNanosPerMilli + 1,
                                                            1000));

    epoll_event events[4];
    const int n = ::epoll_wait(epoll.get(), events, 4, timeout_ms);
    const TimeNs wake = ipc::MonotonicNowNs();
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == stop_event_.get()) {
        DrainEventFd(stop_event_.get());
        continue;
      }
      // Drain every queued datagram before re-polling.
      while (true) {
        sockaddr_in from{};
        socklen_t from_len = sizeof(from);
        const ssize_t got = ::recvfrom(socket_.get(), buf, sizeof(buf), 0,
                                       reinterpret_cast<sockaddr*>(&from), &from_len);
        if (got < 0) {
          break;  // EAGAIN
        }
        OnDatagram(buf, static_cast<size_t>(got), from, ipc::MonotonicNowNs());
        last_activity = ipc::MonotonicNowNs();
        if (report_.fin_received && fin_deadline == 0) {
          fin_deadline = last_activity + kFinLinger;
        }
      }
    }
    // Delayed-ACK timer: flush if the oldest pending frame has waited long
    // enough.
    if (unacked_frames_ > 0 && wake - oldest_unacked_time_ >= config_.ack_delay) {
      SendAck(wake);
    }
  }
  // Final flush so the sender is not left waiting an RTO for the tail.
  if (unacked_frames_ > 0) {
    SendAck(ipc::MonotonicNowNs());
  }
  return true;
}

void UdpReceiver::OnDatagram(const uint8_t* buf, size_t len, const sockaddr_in& from,
                             TimeNs now) {
  ParsedFrame frame;
  const ParseStatus status = ParseFrame(buf, len, &frame);
  if (status != ParseStatus::kOk) {
    ++report_.corrupt_frames;
    return;
  }
  peer_ = from;
  have_peer_ = true;
  switch (frame.type) {
    case FrameType::kData:
      break;
    case FrameType::kFin:
    case FrameType::kFinAck:
      // Flush pending ACKs first so the sender sees the final ack point
      // before (or with) the FIN-ACK.
      if (unacked_frames_ > 0) {
        SendAck(now);
      }
      report_.fin_received = true;
      SendFinAck(frame.fin, from);
      return;
    case FrameType::kAck:
      return;  // not ours to consume; ignore
  }

  const DataFrame& data = frame.data;
  if (config_.verify_payload &&
      !VerifyPayloadPattern(data.flow_id, data.seq, frame.payload, frame.payload_len)) {
    ++report_.corrupt_frames;
    return;
  }
  if (!any_data_) {
    any_data_ = true;
    flow_id_ = data.flow_id;
    report_.first_data_time = now;
  }
  report_.last_data_time = now;

  const uint64_t seq = data.seq;
  if (seq < cum_ack_ || ooo_.count(seq) != 0) {
    ++report_.duplicate_frames;
    // Re-ACK duplicates immediately: the original ACK was likely lost.
    SendAck(now);
    return;
  }
  ooo_.insert(seq);
  while (!ooo_.empty() && *ooo_.begin() == cum_ack_) {
    ooo_.erase(ooo_.begin());
    ++cum_ack_;
  }
  max_seq_ = std::max(max_seq_, seq);
  // Data frames are never retransmitted, so a hole never fills once the
  // sender has moved `kGiveUpWindow` frames past it: advance the cumulative
  // point over it (keeps ooo_ bounded; the SACK history bitmap — not
  // cum_ack — is what the sender's accounting uses).
  if (max_seq_ > kGiveUpWindow && cum_ack_ < max_seq_ - kGiveUpWindow) {
    cum_ack_ = max_seq_ - kGiveUpWindow;
    ooo_.erase(ooo_.begin(), ooo_.lower_bound(cum_ack_));
    while (!ooo_.empty() && *ooo_.begin() == cum_ack_) {
      ooo_.erase(ooo_.begin());
      ++cum_ack_;
    }
  }
  ++report_.received_frames;
  report_.received_bytes += frame.payload_len;

  newest_recv_time_ = now;
  newest_send_time_ = data.send_time;
  if (unacked_frames_ == 0) {
    oldest_unacked_time_ = now;
  }
  ++unacked_frames_;
  if (unacked_frames_ >= config_.ack_every) {
    SendAck(now);
  }
}

void UdpReceiver::SendAck(TimeNs now) {
  if (!have_peer_ || !any_data_) {
    return;
  }
  AckFrame ack;
  ack.flow_id = flow_id_;
  ack.cum_ack = cum_ack_;
  ack.ack_seq = max_seq_;
  ack.echo_send_time = newest_send_time_;
  ack.ack_delay = std::max<TimeNs>(now - newest_recv_time_, 0);
  // History window: bit i covers seq max_seq_ - 1 - i. A sequence is
  // "received" when it sits below the cumulative point or in the
  // out-of-order set.
  uint64_t bitmap = 0;
  for (uint64_t i = 0; i < 64 && i < max_seq_; ++i) {
    const uint64_t seq = max_seq_ - 1 - i;
    if (seq < cum_ack_ || ooo_.count(seq) != 0) {
      bitmap |= 1ULL << i;
    }
  }
  ack.sack_bitmap = bitmap;
  ack.acked_count = unacked_frames_;
  ack.received_bytes_total = report_.received_bytes;
  ack.received_frames_total = report_.received_frames;
  ack.corrupt_frames_total = static_cast<uint32_t>(
      std::min<uint64_t>(report_.corrupt_frames, UINT32_MAX));

  uint8_t buf[kAckFrameBytes];
  const size_t len = SerializeAck(ack, buf, sizeof(buf));
  if (len > 0) {
    ::sendto(socket_.get(), buf, len, 0, reinterpret_cast<const sockaddr*>(&peer_),
             sizeof(peer_));
    ++report_.acks_sent;
  }
  unacked_frames_ = 0;
}

void UdpReceiver::SendFinAck(const FinFrame& fin, const sockaddr_in& to) {
  uint8_t buf[kFinFrameBytes];
  const size_t len = SerializeFin(fin, /*is_ack=*/true, buf, sizeof(buf));
  if (len > 0) {
    ::sendto(socket_.get(), buf, len, 0, reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  }
}

}  // namespace net
}  // namespace astraea
