// gen_seeds: writes the deterministic seed corpus under fuzz/corpus/.
//
//   gen_seeds <corpus-root>
//
// One directory per fuzz target, seeded with well-formed images (so the
// fuzzer starts from deep in the parser, not at the magic check) plus a few
// canonical near-misses (truncated, bad magic, corrupt CRC). The corpus is
// checked in; regenerate only when a format changes, and re-run the
// <target>_replay ctest tests afterwards.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/net/wire.h"
#include "src/nn/mlp.h"
#include "src/serve/serve_protocol.h"
#include "src/sim/trace.h"
#include "src/util/checkpoint.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"

namespace astraea {
namespace {

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  std::printf("%s (%zu bytes)\n", path.c_str(), bytes.size());
}

template <typename T>
void Append(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// A valid checkpoint container around `payload`.
std::string WrapCheckpoint(const std::string& payload) {
  std::string blob = payload;
  Append<uint64_t>(&blob, payload.size());
  Append<uint32_t>(&blob, Crc32(payload.data(), payload.size()));
  Append<uint32_t>(&blob, kCheckpointFooterMagic);
  return blob;
}

std::string MlpStream() {
  Rng rng(7);
  const Mlp mlp({5, 8, 1}, OutputActivation::kTanh, &rng);
  std::ostringstream buf;
  BinaryWriter writer(&buf);
  mlp.Save(&writer);
  return buf.str();
}

std::string TraceStream() {
  const std::filesystem::path tmp = std::filesystem::temp_directory_path() / "gen_seeds.trace";
  {
    Tracer tracer(tmp.string(), Tracer::Format::kBinary);
    tracer.Record(0, TraceEventType::kSend, 0, -1, 0, 1500.0, 1500.0);
    tracer.Record(1000, TraceEventType::kEnqueue, 0, 0, 0, 1500.0, 1500.0);
    tracer.Record(2000, TraceEventType::kDequeue, 0, 0, 0, 1500.0, 0.0);
    tracer.Record(3000, TraceEventType::kAck, 0, -1, 0, 20.0, 0.0);
    tracer.Close();
  }
  std::ifstream in(tmp, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::filesystem::remove(tmp);
  return bytes;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root = argv[1];

  // fuzz_checkpoint: valid container, truncation, magic and CRC near-misses.
  const auto ckpt_dir = root / "fuzz_checkpoint";
  std::filesystem::create_directories(ckpt_dir);
  const std::string ckpt = WrapCheckpoint("astraea checkpoint payload");
  WriteFile(ckpt_dir / "valid.ckpt", ckpt);
  WriteFile(ckpt_dir / "truncated.ckpt", ckpt.substr(0, ckpt.size() - 1));
  std::string bad_magic = ckpt;
  bad_magic.back() ^= 0x01;
  WriteFile(ckpt_dir / "bad_magic.ckpt", bad_magic);
  std::string bad_crc = ckpt;
  bad_crc.front() ^= 0x01;
  WriteFile(ckpt_dir / "bad_crc.ckpt", bad_crc);
  WriteFile(ckpt_dir / "empty.ckpt", "");

  // fuzz_mlp: raw parameter stream, corrupt dim, truncation.
  const auto mlp_dir = root / "fuzz_mlp";
  std::filesystem::create_directories(mlp_dir);
  const std::string mlp = MlpStream();
  WriteFile(mlp_dir / "raw.mlp", mlp);
  std::string bad_dim = mlp;
  bad_dim[4] = static_cast<char>(0xFF);  // clobber inside the dims block
  WriteFile(mlp_dir / "bad_dim.mlp", bad_dim);
  WriteFile(mlp_dir / "truncated.mlp", mlp.substr(0, mlp.size() / 2));

  // fuzz_trace: valid stream, header-only, bad magic, partial record.
  const auto trace_dir = root / "fuzz_trace";
  std::filesystem::create_directories(trace_dir);
  const std::string trace = TraceStream();
  WriteFile(trace_dir / "valid.trace", trace);
  WriteFile(trace_dir / "header_only.trace", trace.substr(0, 12));
  std::string trace_bad_magic = trace;
  trace_bad_magic[0] ^= 0x01;
  WriteFile(trace_dir / "bad_magic.trace", trace_bad_magic);
  WriteFile(trace_dir / "partial_record.trace", trace.substr(0, trace.size() - 7));

  // fuzz_serve_protocol: selector byte + record bytes (see the target).
  const auto serve_dir = root / "fuzz_serve_protocol";
  std::filesystem::create_directories(serve_dir);
  serve::RequestRecord req{};
  req.req_id = 42;
  req.state_dim = 5;
  for (size_t i = 0; i < req.state_dim; ++i) {
    req.state[i] = static_cast<float>(i) * 0.25f;
  }
  req.crc = serve::RequestCrc(req);
  std::string req_bytes(1, '\0');  // selector 0 = request
  req_bytes.append(reinterpret_cast<const char*>(&req), sizeof(req));
  WriteFile(serve_dir / "request_valid.bin", req_bytes);
  std::string req_corrupt = req_bytes;
  req_corrupt[16] ^= 0x01;  // flip a CRC byte
  WriteFile(serve_dir / "request_bad_crc.bin", req_corrupt);
  serve::ResponseRecord resp{};
  resp.req_id = 42;
  resp.status = 0;
  resp.action = 1.5f;
  resp.crc = serve::ResponseCrc(resp);
  std::string resp_bytes(1, '\x01');  // selector 1 = response
  resp_bytes.append(reinterpret_cast<const char*>(&resp), sizeof(resp));
  WriteFile(serve_dir / "response_valid.bin", resp_bytes);
  WriteFile(serve_dir / "short.bin", std::string(1, '\0'));

  // fuzz_net_wire: one valid frame of each type plus canonical near-misses.
  const auto net_dir = root / "fuzz_net_wire";
  std::filesystem::create_directories(net_dir);
  {
    uint8_t buf[net::kMaxFrameBytes];
    net::DataFrame data;
    data.flow_id = 1;
    data.seq = 17;
    data.send_time = Milliseconds(250);
    data.sent_bytes_total = 21600;
    data.sent_frames_total = 18;
    data.payload_len = 1152;  // mss 1200 - data header
    size_t len = net::SerializeData(data, buf, sizeof(buf));
    WriteFile(net_dir / "data_valid.bin",
              std::string(reinterpret_cast<char*>(buf), len));
    std::string data_bad_crc(reinterpret_cast<char*>(buf), len);
    data_bad_crc[20] ^= 0x01;
    WriteFile(net_dir / "data_bad_crc.bin", data_bad_crc);
    WriteFile(net_dir / "data_truncated.bin",
              std::string(reinterpret_cast<char*>(buf), len / 2));

    net::AckFrame ack;
    ack.flow_id = 1;
    ack.cum_ack = 15;
    ack.ack_seq = 17;
    ack.echo_send_time = Milliseconds(250);
    ack.ack_delay = Milliseconds(2);
    ack.sack_bitmap = 0x5ULL;  // hole at ack_seq - 2
    ack.acked_count = 2;
    ack.received_bytes_total = 19584;
    ack.received_frames_total = 17;
    len = net::SerializeAck(ack, buf, sizeof(buf));
    WriteFile(net_dir / "ack_valid.bin",
              std::string(reinterpret_cast<char*>(buf), len));
    std::string ack_bad_magic(reinterpret_cast<char*>(buf), len);
    ack_bad_magic[0] ^= 0x01;
    WriteFile(net_dir / "ack_bad_magic.bin", ack_bad_magic);

    net::FinFrame fin;
    fin.flow_id = 1;
    fin.final_seq = 18;
    len = net::SerializeFin(fin, /*is_ack=*/false, buf, sizeof(buf));
    WriteFile(net_dir / "fin_valid.bin",
              std::string(reinterpret_cast<char*>(buf), len));
    len = net::SerializeFin(fin, /*is_ack=*/true, buf, sizeof(buf));
    WriteFile(net_dir / "finack_valid.bin",
              std::string(reinterpret_cast<char*>(buf), len));
    std::string fin_trailing(reinterpret_cast<char*>(buf), len);
    fin_trailing.push_back('\0');
    WriteFile(net_dir / "fin_trailing_byte.bin", fin_trailing);
  }

  // fuzz_link_trace: well-formed Mahimahi traces plus canonical rejects
  // (comments/CRLF are accepted on input; the rest must throw).
  const auto lt_dir = root / "fuzz_link_trace";
  std::filesystem::create_directories(lt_dir);
  WriteFile(lt_dir / "valid.trace", "0\n0\n3\n3\n3\n20\n40\n40\n");
  WriteFile(lt_dir / "comments_crlf.trace", "# capture\r\n\r\n5\r\n7\r\n# mid\r\n9\r\n");
  WriteFile(lt_dir / "single.trace", "17\n");
  WriteFile(lt_dir / "no_trailing_newline.trace", "1\n2\n3");
  WriteFile(lt_dir / "decreasing.trace", "5\n4\n");
  WriteFile(lt_dir / "garbage.trace", "12monkeys\n");
  WriteFile(lt_dir / "negative.trace", "-3\n");
  WriteFile(lt_dir / "too_large.trace", "99999999999\n");
  WriteFile(lt_dir / "empty.trace", "");
  WriteFile(lt_dir / "comment_only.trace", "# nothing here\n");

  // fuzz_cli_flags: representative accepted/rejected tokens.
  const auto cli_dir = root / "fuzz_cli_flags";
  std::filesystem::create_directories(cli_dir);
  WriteFile(cli_dir / "int.txt", "42");
  WriteFile(cli_dir / "negative.txt", "-7");
  WriteFile(cli_dir / "double.txt", "0.125");
  WriteFile(cli_dir / "duration_us.txt", "500us");
  WriteFile(cli_dir / "duration_s.txt", "1.5s");
  WriteFile(cli_dir / "duration_no_unit.txt", "1500");
  WriteFile(cli_dir / "nan.txt", "nan");
  WriteFile(cli_dir / "huge.txt", "1e308s");
  WriteFile(cli_dir / "garbage.txt", "12monkeys");
  // A command line for FlagSet::TryParse: every binding, a repeat, a
  // positional and a trailing flag with no value.
  WriteFile(cli_dir / "argv.txt", "--on --i 5 --u 7 --d 0.5 --t 5ms --s x run.trace --i -3 --t");
  return 0;
}

}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
