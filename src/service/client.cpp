#include "service/client.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/chaos.h"
#include "service/socket.h"

namespace sck::service {

namespace {

void set_error(std::string* error, std::string why) {
  if (error) *error = std::move(why);
}

enum class Outcome {
  kResult,  ///< response decoded, campaign succeeded
  kFail,    ///< deterministic failure — retrying cannot change it
  kRetry,   ///< transport trouble — reconnect and re-submit
};

/// Block on one connection until a response frame, a transport fault, the
/// idle timeout or the total deadline. kFail fills *fail_why, kRetry
/// fills *retry_why (the deadline check in the caller surfaces it).
Outcome await_response(int fd, const ClientOptions& client, double deadline,
                       ServiceCampaignResult* out, std::string* fail_why,
                       std::string* retry_why) {
  FrameBuffer in;
  double last_rx = now_seconds();
  for (;;) {
    const double now = now_seconds();
    if (now >= deadline) {
      *retry_why = "total deadline reached while awaiting the response";
      return Outcome::kRetry;
    }
    if (now - last_rx > client.idle_timeout) {
      // Nothing arrived for idle_timeout: the daemon died without an EOF
      // reaching us, or a half-delivered frame wedged the stream. A fresh
      // connection + idempotent re-submit recovers both.
      *retry_why = "daemon silent past the idle timeout";
      return Outcome::kRetry;
    }
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      *retry_why = std::string("poll: ") + std::strerror(errno);
      return Outcome::kRetry;
    }
    if (ready == 0) continue;

    unsigned char chunk[64 * 1024];
    const ssize_t n = chaos_recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      *retry_why = "daemon closed the connection before responding";
      return Outcome::kRetry;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      *retry_why = std::string("recv: ") + std::strerror(errno);
      return Outcome::kRetry;
    }
    last_rx = now_seconds();
    in.feed(chunk, static_cast<std::size_t>(n));
    const std::optional<Frame> frame = in.next();
    if (in.error()) {
      *retry_why = "wire error: " + in.error_detail();
      return Outcome::kRetry;
    }
    if (!frame.has_value()) continue;

    if (frame->type == MsgType::kError) {
      const std::optional<std::string> msg = decode_error(frame->payload);
      *fail_why =
          "daemon error: " + (msg.has_value() ? *msg : "<malformed>");
      return Outcome::kFail;
    }
    if (frame->type != MsgType::kCampaignResponse) {
      *retry_why = "unexpected response type";
      return Outcome::kRetry;
    }
    std::optional<CampaignResponsePayload> response =
        decode_campaign_response(frame->payload);
    if (!response.has_value()) {
      *retry_why = "malformed campaign response";
      return Outcome::kRetry;
    }
    if (!response->ok) {
      // The daemon DID process the request; its verdict is deterministic.
      *fail_why = "campaign failed: " + response->error;
      return Outcome::kFail;
    }
    out->result = std::move(response->result);
    out->stats = std::move(response->stats);
    return Outcome::kResult;
  }
}

}  // namespace

std::optional<ServiceCampaignResult> run_remote_campaign(
    const std::string& address, const hls::Dfg& graph,
    const hls::Netlist& netlist, const hls::NetlistCampaignOptions& options,
    std::string* error, const ClientOptions& client) {
  const std::optional<Address> addr = parse_address(address);
  if (!addr.has_value()) {
    set_error(error, "malformed daemon address: " + address);
    return std::nullopt;
  }

  // A request is a CampaignSetupPayload with id 0 (the daemon assigns the
  // real id); reusing the setup codec keeps request and worker-broadcast
  // framing on one code path. Encoded ONCE: every re-submission is the
  // same bytes, so every re-attach lands on the same fingerprint.
  CampaignSetupPayload request;
  request.campaign_id = 0;
  request.campaign.graph = graph;
  request.campaign.netlist = netlist;
  request.campaign.options = options;
  const std::vector<unsigned char> request_frame = encode_frame(
      MsgType::kCampaignRequest, encode_campaign_setup(request));

  const double deadline = now_seconds() + client.total_timeout;
  double backoff = kBackoffInitial;
  std::string last = "no attempt made";
  for (bool first = true;; first = false) {
    if (!first) {
      const double pause =
          std::min(backoff, std::max(deadline - now_seconds(), 0.0));
      std::this_thread::sleep_for(std::chrono::duration<double>(pause));
      backoff = std::min(backoff * 2.0, kBackoffMax);
    }
    const double remaining = deadline - now_seconds();
    if (remaining <= 0) {
      set_error(error, "campaign submission timed out (last: " + last + ")");
      return std::nullopt;
    }

    const int fd =
        connect_with_retry(*addr, std::min(remaining, 5.0), &last);
    if (fd < 0) continue;
    if (!send_all(fd, request_frame)) {
      last = "sending campaign request failed";
      close_fd(fd);
      continue;
    }

    ServiceCampaignResult out;
    std::string fail_why;
    const Outcome o =
        await_response(fd, client, deadline, &out, &fail_why, &last);
    close_fd(fd);
    switch (o) {
      case Outcome::kResult:
        return out;
      case Outcome::kFail:
        set_error(error, std::move(fail_why));
        return std::nullopt;
      case Outcome::kRetry:
        break;  // back around: backoff, reconnect, re-submit
    }
  }
}

}  // namespace sck::service
