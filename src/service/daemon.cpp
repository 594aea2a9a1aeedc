#include "service/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/assert.h"
#include "fault/parallel.h"
#include "hls/netlist_exec.h"
#include "service/chaos.h"
#include "service/socket.h"
#include "store/fingerprint.h"
#include "store/journal.h"
#include "store/store.h"

namespace sck::service {

namespace {

/// Shard boundaries must be whole plane-width batches on EVERY worker, no
/// matter which lane width each worker resolves — 512 is the widest plane,
/// and every narrower width divides it.
constexpr int kWidestPlane = 512;

constexpr std::size_t kReadChunk = 64 * 1024;

/// Shards pipelined per worker: the next shard travels while the previous
/// one executes.
constexpr std::size_t kMaxInflightPerWorker = 2;

struct ShardDef {
  std::uint64_t base = 0;
  std::uint32_t count = 0;
};

/// One shard handed to a worker and not yet answered back.
struct InflightShard {
  std::uint64_t campaign = 0;
  std::size_t shard = 0;
  double since = 0;  ///< assignment time, for the shard-age timeout
};

struct Connection {
  int fd = -1;
  enum class Kind { kUnknown, kWorker, kClient } kind = Kind::kUnknown;
  FrameBuffer in;
  std::deque<std::vector<unsigned char>> outq;
  std::size_t out_at = 0;  ///< bytes of outq.front() already sent
  std::uint64_t worker_id = 0;
  std::string name;
  bool named = false;  ///< name came from the Hello (probation-trackable)
  std::int32_t lanes = 0;
  double last_rx = 0;
  /// Shards handed to this worker, not yet answered.
  std::vector<InflightShard> inflight;
  /// Campaigns whose setup frame this worker already received.
  std::set<std::uint64_t> has_setup;
};

struct ActiveCampaign {
  std::uint64_t id = 0;
  CampaignPayload payload;  ///< owns graph + netlist; address-stable
  hls::ExecPlan plan;       ///< compiled once; points into payload.netlist
  store::Fingerprint fp;
  std::vector<hls::FaultJob> jobs;
  std::vector<fault::CampaignStats> per_job;  ///< the grid-index slots
  std::vector<ShardDef> shards;
  std::unique_ptr<fault::ShardQueue> queue;
  std::vector<unsigned char> setup_frame;
  std::vector<int> waiting_clients;  ///< fds to answer at completion
  /// Shard write-ahead journal (store-backed campaigns only): merged
  /// results are committed here before a crash can lose them.
  std::unique_ptr<store::ShardJournal> journal;
  ShardStats stats;
  std::map<std::uint64_t, WorkerShardStats> per_worker;  ///< by worker id
  double t0 = 0;
};

}  // namespace

struct CampaignDaemon::Impl {
  explicit Impl(ServiceOptions o) : opt(std::move(o)) {
    // Round the shard size up to whole widest-plane batches.
    if (opt.shard_jobs < 1) opt.shard_jobs = kWidestPlane;
    opt.shard_jobs =
        ((opt.shard_jobs + kWidestPlane - 1) / kWidestPlane) * kWidestPlane;
  }

  ~Impl() {
    for (auto& [fd, conn] : conns) close_fd(fd);
    close_fd(listen_fd);
    close_fd(wake_rd);
    close_fd(wake_wr);
  }

  ServiceOptions opt;
  Address listen_addr;
  int listen_fd = -1;
  int wake_rd = -1;
  int wake_wr = -1;
  std::atomic<bool> stopping{false};
  std::string resolved_address;

  std::map<int, Connection> conns;
  /// Active campaigns by id; std::map keeps creation (id) order, which is
  /// the shard-assignment priority order.
  std::map<std::uint64_t, std::unique_ptr<ActiveCampaign>> campaigns;
  std::uint64_t next_worker_id = 1;
  std::uint64_t next_campaign_id = 1;
  std::unique_ptr<store::CampaignStore> store;
  std::set<int> pending_dead;
  std::atomic<bool> hard_stopping{false};
  /// Probation ledger, keyed by ANNOUNCED worker name (auto-named workers
  /// get a fresh name per connection — nothing to track across dials).
  std::map<std::string, int> strikes;
  std::set<std::string> quarantined;

  mutable std::mutex counters_mutex;
  DaemonCounters counters;

  // -- outbound ------------------------------------------------------------

  /// Queue a frame and opportunistically flush (the common case fits the
  /// socket buffer). A send failure defers the fd to pending_dead.
  void enqueue(Connection& conn, std::vector<unsigned char> frame) {
    conn.outq.push_back(std::move(frame));
    flush(conn);
  }

  void flush(Connection& conn) {
    while (!conn.outq.empty()) {
      const std::vector<unsigned char>& buf = conn.outq.front();
      // chaos_send = hardened send(2): MSG_NOSIGNAL forced, EINTR retried
      // internally, transit faults injected when the chaos shim is on.
      const ssize_t n =
          chaos_send(conn.fd, buf.data() + conn.out_at,
                     buf.size() - conn.out_at, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        pending_dead.insert(conn.fd);
        return;
      }
      conn.out_at += static_cast<std::size_t>(n);
      if (conn.out_at == buf.size()) {
        conn.outq.pop_front();
        conn.out_at = 0;
      }
    }
  }

  // -- campaign lifecycle ---------------------------------------------------

  [[nodiscard]] ShardStats cache_hit_stats(double t0) const {
    ShardStats stats;
    stats.served_from_cache = true;
    stats.seconds = now_seconds() - t0;
    return stats;
  }

  void respond(Connection& conn, const CampaignResponsePayload& payload) {
    enqueue(conn, encode_frame(MsgType::kCampaignResponse,
                               encode_campaign_response(payload)));
  }

  void respond_error(Connection& conn, std::uint64_t id, std::string why) {
    CampaignResponsePayload payload;
    payload.campaign_id = id;
    payload.ok = false;
    payload.error = std::move(why);
    respond(conn, payload);
  }

  void handle_campaign_request(Connection& conn, const Frame& frame) {
    const double t0 = now_seconds();
    const std::optional<CampaignSetupPayload> req =
        decode_campaign_setup(frame.payload);
    if (!req.has_value()) {
      respond_error(conn, 0, "malformed campaign request payload");
      return;
    }

    // One campaign object per request, so the plan/jobs stay pinned even
    // when the request is answered straight from the store.
    auto campaign = std::make_unique<ActiveCampaign>();
    campaign->payload = req->campaign;
    campaign->plan = hls::compile_execution_plan(campaign->payload.netlist);
    campaign->fp = store::campaign_fingerprint(
        campaign->payload.graph, campaign->plan, campaign->payload.options);

    if (store) {
      if (std::optional<hls::NetlistCampaignResult> cached =
              store->load(campaign->fp)) {
        CampaignResponsePayload payload;
        payload.campaign_id = 0;
        payload.ok = true;
        payload.result = *std::move(cached);
        payload.stats = cache_hit_stats(t0);
        // Count BEFORE responding: enqueue may flush synchronously, and a
        // client that has the response must observe the updated counters.
        {
          const std::lock_guard<std::mutex> lock(counters_mutex);
          ++counters.campaigns_cached;
          ++counters.campaigns_completed;
        }
        respond(conn, payload);
        return;
      }
    }

    // A byte-identical campaign already in flight? Attach this client to
    // it instead of recomputing (deterministic results make the answer
    // interchangeable).
    for (auto& [id, active] : campaigns) {
      if (active->fp == campaign->fp) {
        active->waiting_clients.push_back(conn.fd);
        return;
      }
    }

    campaign->id = next_campaign_id++;
    campaign->t0 = t0;
    campaign->jobs =
        hls::enumerate_fault_jobs(campaign->payload.netlist,
                                  campaign->payload.options);
    campaign->per_job.assign(campaign->jobs.size(), {});
    for (std::uint64_t base = 0; base < campaign->jobs.size();
         base += static_cast<std::uint64_t>(opt.shard_jobs)) {
      ShardDef def;
      def.base = base;
      def.count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(static_cast<std::uint64_t>(opt.shard_jobs),
                                  campaign->jobs.size() - base));
      campaign->shards.push_back(def);
    }
    campaign->queue =
        std::make_unique<fault::ShardQueue>(campaign->shards.size());
    campaign->stats.shards_total = campaign->shards.size();

    if (store) {
      // Pin the fingerprint so a concurrent trim can never evict the
      // journal (or a freshly saved entry) of an in-flight campaign, then
      // open the write-ahead journal — recovering whatever a pre-crash
      // daemon committed for this exact fingerprint.
      store->pin(campaign->fp);
      campaign->journal = std::make_unique<store::ShardJournal>(
          store->journal_path(campaign->fp), campaign->fp,
          campaign->jobs.size());
      for (const store::JournalShard& rec :
           campaign->journal->recovery().shards) {
        // Each recovered record must match a shard of THIS daemon's cut:
        // a restart with a different shard_jobs produces different
        // geometry, and a non-matching record degrades to recompute —
        // never to a wrong splice.
        if (rec.shard_id >= campaign->shards.size()) continue;
        const ShardDef& def = campaign->shards[rec.shard_id];
        if (rec.base != def.base || rec.per_job.size() != def.count) continue;
        if (!campaign->queue->complete(rec.shard_id)) continue;
        std::copy(rec.per_job.begin(), rec.per_job.end(),
                  campaign->per_job.begin() +
                      static_cast<std::ptrdiff_t>(def.base));
        ++campaign->stats.shards_executed;
        ++campaign->stats.shards_resumed;
      }
      if (campaign->stats.shards_resumed > 0) {
        const std::lock_guard<std::mutex> lock(counters_mutex);
        counters.shards_resumed += campaign->stats.shards_resumed;
      }
    }

    CampaignSetupPayload setup;
    setup.campaign_id = campaign->id;
    setup.campaign = campaign->payload;
    campaign->setup_frame =
        encode_frame(MsgType::kCampaignSetup, encode_campaign_setup(setup));
    campaign->waiting_clients.push_back(conn.fd);

    ActiveCampaign& active =
        *campaigns.emplace(campaign->id, std::move(campaign)).first->second;
    if (active.jobs.empty() || active.queue->all_complete()) {
      finalize(active);  // empty universe, or every shard resumed
      return;
    }
    assign_shards();
  }

  void handle_shard_result(Connection& conn, const Frame& frame) {
    const std::optional<ShardResultPayload> res =
        decode_shard_result(frame.payload);
    if (!res.has_value()) {
      pending_dead.insert(conn.fd);  // desynchronized worker
      return;
    }
    std::erase_if(conn.inflight, [&](const InflightShard& s) {
      return s.campaign == res->campaign_id &&
             s.shard == static_cast<std::size_t>(res->shard_id);
    });

    const auto it = campaigns.find(res->campaign_id);
    if (it == campaigns.end()) return;  // stale result of a done campaign
    ActiveCampaign& campaign = *it->second;
    if (res->shard_id >= campaign.shards.size()) {
      pending_dead.insert(conn.fd);
      return;
    }
    const ShardDef& def = campaign.shards[res->shard_id];
    if (res->base != def.base || res->per_job.size() != def.count) {
      pending_dead.insert(conn.fd);
      return;
    }

    // Grid-index-slot merge: first result for this shard wins; a late
    // duplicate from a presumed-dead worker is dropped (it would carry
    // identical bytes anyway — determinism).
    if (!campaign.queue->complete(res->shard_id)) return;
    std::copy(res->per_job.begin(), res->per_job.end(),
              campaign.per_job.begin() +
                  static_cast<std::ptrdiff_t>(def.base));
    ++campaign.stats.shards_executed;
    // Write-ahead: commit the merged shard durably BEFORE it can matter —
    // a daemon crash past this line resumes instead of recomputing it.
    if (campaign.journal && campaign.journal->usable() &&
        campaign.journal->append(res->shard_id, def.base, res->per_job)) {
      ++campaign.stats.shards_journaled;
      const std::lock_guard<std::mutex> lock(counters_mutex);
      ++counters.shards_journaled;
    }
    WorkerShardStats& ws = campaign.per_worker[conn.worker_id];
    if (ws.worker.empty()) {
      ws.worker = conn.name;
      ws.lanes = conn.lanes;
    }
    ++ws.shards;
    ws.samples +=
        static_cast<std::uint64_t>(def.count) *
        static_cast<std::uint64_t>(campaign.payload.options.samples_per_fault);
    ws.seconds += res->seconds;

    if (campaign.queue->all_complete()) {
      finalize(campaign);
      return;
    }
    assign_shards();
  }

  void finalize(ActiveCampaign& campaign) {
    hls::NetlistCampaignResult result = hls::reduce_campaign_slices(
        campaign.payload.netlist, campaign.jobs, campaign.per_job);

    campaign.stats.seconds = now_seconds() - campaign.t0;
    std::uint64_t samples = 0;
    for (auto& [worker_id, ws] : campaign.per_worker) {
      samples += ws.samples;
      if (ws.shards > 0) ++campaign.stats.workers;
      campaign.stats.per_worker.push_back(ws);
    }
    if (campaign.stats.seconds > 0) {
      campaign.stats.samples_per_sec =
          static_cast<double>(samples) / campaign.stats.seconds;
    }

    if (store) {
      // Save first, THEN retire the journal: a crash between the two
      // leaves both on disk and the cache hit wins on resubmission.
      store->save(campaign.fp, result);
      if (campaign.journal) campaign.journal->remove();
      store->unpin(campaign.fp);
    }

    CampaignResponsePayload payload;
    payload.campaign_id = campaign.id;
    payload.ok = true;
    payload.result = std::move(result);
    payload.stats = campaign.stats;
    const std::vector<unsigned char> frame = encode_frame(
        MsgType::kCampaignResponse, encode_campaign_response(payload));
    // Count BEFORE responding: enqueue may flush synchronously, and a
    // client that has the response must observe the updated counters.
    {
      const std::lock_guard<std::mutex> lock(counters_mutex);
      ++counters.campaigns_completed;
    }
    for (const int fd : campaign.waiting_clients) {
      const auto it = conns.find(fd);
      if (it != conns.end()) enqueue(it->second, frame);
    }
    // Workers free the campaign's runner. Frames on one connection arrive
    // in order, so this follows the campaign's last shard request there.
    const std::vector<unsigned char> done = encode_frame(
        MsgType::kCampaignDone,
        encode_campaign_done(CampaignDonePayload{campaign.id}));
    for (auto& [fd, conn] : conns) {
      if (conn.has_setup.erase(campaign.id) > 0) enqueue(conn, done);
    }
    campaigns.erase(campaign.id);  // campaign is dead past this line
  }

  // -- worker lifecycle -----------------------------------------------------

  void handle_hello(Connection& conn, const Frame& frame) {
    const std::optional<HelloPayload> hello = decode_hello(frame.payload);
    if (!hello.has_value()) {
      pending_dead.insert(conn.fd);
      return;
    }
    // Capability negotiation. The protocol version is the only hard
    // requirement; the lane width is recorded for ShardStats telemetry —
    // results are lane-width-invariant, so any worker may run any shard.
    if (hello->protocol != kWireProtocolVersion) {
      enqueue(conn, encode_frame(
                        MsgType::kError,
                        encode_error("protocol version mismatch: worker " +
                                     std::to_string(hello->protocol) +
                                     ", daemon " +
                                     std::to_string(kWireProtocolVersion))));
      pending_dead.insert(conn.fd);
      return;
    }
    // Probation: a name that exhausted its strikes has its capability
    // slot retired — the hello is turned away, the shards stay with
    // workers that keep them alive.
    if (!hello->worker_name.empty() &&
        quarantined.contains(hello->worker_name)) {
      enqueue(conn,
              encode_frame(MsgType::kError,
                           encode_error("worker '" + hello->worker_name +
                                        "' is quarantined after losing " +
                                        std::to_string(opt.probation_strikes) +
                                        " shards")));
      pending_dead.insert(conn.fd);
      return;
    }
    conn.kind = Connection::Kind::kWorker;
    conn.worker_id = next_worker_id++;
    conn.named = !hello->worker_name.empty();
    conn.name = conn.named ? hello->worker_name
                           : "worker-" + std::to_string(conn.worker_id);
    conn.lanes = hello->native_lanes;
    HelloAckPayload ack;
    ack.worker_id = conn.worker_id;
    enqueue(conn, encode_frame(MsgType::kHelloAck, encode_hello_ack(ack)));
    {
      const std::lock_guard<std::mutex> lock(counters_mutex);
      ++counters.workers_joined;
    }
    assign_shards();
  }

  /// Hand pending shards to workers with spare in-flight capacity,
  /// campaigns in id order, shard setup sent once per (worker, campaign).
  void assign_shards() {
    for (auto& [fd, conn] : conns) {
      if (conn.kind != Connection::Kind::kWorker) continue;
      if (pending_dead.contains(fd)) continue;
      for (auto& [id, campaign] : campaigns) {
        while (conn.inflight.size() < kMaxInflightPerWorker) {
          const std::optional<std::size_t> shard = campaign->queue->acquire();
          if (!shard.has_value()) break;
          if (!conn.has_setup.contains(id)) {
            enqueue(conn, campaign->setup_frame);
            conn.has_setup.insert(id);
          }
          const ShardDef& def = campaign->shards[*shard];
          ShardRequestPayload req;
          req.campaign_id = id;
          req.shard_id = *shard;
          req.base = def.base;
          req.jobs.assign(
              campaign->jobs.begin() +
                  static_cast<std::ptrdiff_t>(def.base),
              campaign->jobs.begin() +
                  static_cast<std::ptrdiff_t>(def.base + def.count));
          enqueue(conn, encode_frame(MsgType::kShardRequest,
                                     encode_shard_request(req)));
          conn.inflight.push_back(InflightShard{id, *shard, now_seconds()});
        }
      }
    }
  }

  /// A worker died (EOF, send failure, protocol violation or heartbeat
  /// timeout): re-queue its in-flight shards for survivors; a client died:
  /// forget it. Closes and erases the connection.
  void disconnect(int fd) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    Connection& conn = it->second;
    if (conn.kind == Connection::Kind::kWorker) {
      std::set<std::uint64_t> touched;
      for (const InflightShard& held : conn.inflight) {
        const auto cit = campaigns.find(held.campaign);
        if (cit == campaigns.end()) continue;
        ActiveCampaign& campaign = *cit->second;
        campaign.queue->requeue(held.shard);
        ++campaign.stats.shards_requeued;
        WorkerShardStats& ws = campaign.per_worker[conn.worker_id];
        if (ws.worker.empty()) {
          ws.worker = conn.name;
          ws.lanes = conn.lanes;
        }
        ws.lost = true;
        if (touched.insert(held.campaign).second) {
          ++campaign.stats.workers_lost;
        }
      }
      bool newly_quarantined = false;
      if (!conn.inflight.empty() && conn.named && opt.probation_strikes > 0) {
        // Each disconnect-with-work is one strike against the NAME; at
        // the limit the name is quarantined for the daemon's lifetime.
        const int s = ++strikes[conn.name];
        if (s >= opt.probation_strikes &&
            quarantined.insert(conn.name).second) {
          newly_quarantined = true;
          std::fprintf(stderr,
                       "[daemon] quarantining worker '%s' after losing %d "
                       "shard(s) across %d connection(s)\n",
                       conn.name.c_str(),
                       static_cast<int>(conn.inflight.size()), s);
          for (const std::uint64_t campaign_id : touched) {
            ++campaigns.at(campaign_id)->stats.workers_quarantined;
          }
        }
      }
      const std::lock_guard<std::mutex> lock(counters_mutex);
      counters.shards_requeued += conn.inflight.size();
      if (!conn.inflight.empty()) ++counters.workers_lost;
      if (newly_quarantined) ++counters.workers_quarantined;
    } else {
      for (auto& [id, campaign] : campaigns) {
        std::erase(campaign->waiting_clients, fd);
      }
    }
    close_fd(fd);
    conns.erase(it);
    assign_shards();  // survivors pick the re-queued work up immediately
  }

  void check_heartbeats() {
    const double now = now_seconds();
    for (auto& [fd, conn] : conns) {
      if (conn.kind == Connection::Kind::kUnknown) {
        // A connection that never identified itself (its hello lost or
        // half-delivered in transit) must not leak forever.
        if (now - conn.last_rx > opt.heartbeat_timeout) {
          pending_dead.insert(fd);
        }
        continue;
      }
      if (conn.kind != Connection::Kind::kWorker) continue;
      if (conn.inflight.empty()) continue;  // idle workers may sleep
      if (now - conn.last_rx > opt.heartbeat_timeout) {
        pending_dead.insert(fd);
        continue;
      }
      // Heartbeats prove the worker is alive, not that a shard is coming:
      // a request half-lost in transit stalls its shard forever while
      // idle-loop heartbeats keep last_rx fresh. Age out the assignment —
      // dropping the connection re-queues the work AND hands any live
      // worker process a clean stream to reconnect on.
      for (const InflightShard& held : conn.inflight) {
        if (now - held.since > opt.heartbeat_timeout) {
          pending_dead.insert(fd);
          break;
        }
      }
    }
  }

  // -- event loop -----------------------------------------------------------

  void handle_frame(Connection& conn, const Frame& frame) {
    switch (frame.type) {
      case MsgType::kHello:
        if (conn.kind == Connection::Kind::kUnknown) {
          handle_hello(conn, frame);
        } else {
          pending_dead.insert(conn.fd);
        }
        break;
      case MsgType::kCampaignRequest:
        if (conn.kind == Connection::Kind::kWorker) {
          pending_dead.insert(conn.fd);
          break;
        }
        conn.kind = Connection::Kind::kClient;
        handle_campaign_request(conn, frame);
        break;
      case MsgType::kShardResult:
        if (conn.kind != Connection::Kind::kWorker) {
          pending_dead.insert(conn.fd);
          break;
        }
        handle_shard_result(conn, frame);
        break;
      case MsgType::kHeartbeat:
        break;  // liveness is tracked by last_rx on any traffic
      case MsgType::kError: {
        const std::optional<std::string> msg = decode_error(frame.payload);
        std::fprintf(stderr, "[daemon] peer error (fd %d): %s\n", conn.fd,
                     msg.has_value() ? msg->c_str() : "<malformed>");
        pending_dead.insert(conn.fd);
        break;
      }
      case MsgType::kHelloAck:
      case MsgType::kCampaignResponse:
      case MsgType::kCampaignSetup:
      case MsgType::kShardRequest:
      case MsgType::kShutdown:
      case MsgType::kCampaignDone:
        // Daemon-to-peer messages arriving AT the daemon: protocol abuse.
        pending_dead.insert(conn.fd);
        break;
    }
  }

  void on_readable(Connection& conn) {
    unsigned char chunk[kReadChunk];
    for (;;) {
      const ssize_t n = chaos_recv(conn.fd, chunk, sizeof(chunk),
                                   MSG_DONTWAIT);
      if (n > 0) {
        conn.last_rx = now_seconds();
        conn.in.feed(chunk, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
        continue;
      }
      if (n == 0) {  // orderly EOF — includes SIGKILLed workers
        pending_dead.insert(conn.fd);
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      pending_dead.insert(conn.fd);
      break;
    }
    while (!pending_dead.contains(conn.fd)) {
      const std::optional<Frame> frame = conn.in.next();
      if (!frame.has_value()) break;
      handle_frame(conn, *frame);
    }
    if (conn.in.error()) {
      std::fprintf(stderr, "[daemon] dropping fd %d: %s\n", conn.fd,
                   conn.in.error_detail().c_str());
      pending_dead.insert(conn.fd);
    }
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) break;
      set_nonblocking(fd);
      if (!listen_addr.is_unix) set_nodelay(fd);
      Connection conn;
      conn.fd = fd;
      conn.last_rx = now_seconds();
      conns.emplace(fd, std::move(conn));
    }
  }

  void run() {
    std::vector<pollfd> fds;
    while (!stopping.load(std::memory_order_relaxed)) {
      fds.clear();
      fds.push_back(pollfd{wake_rd, POLLIN, 0});
      fds.push_back(pollfd{listen_fd, POLLIN, 0});
      for (const auto& [fd, conn] : conns) {
        short events = POLLIN;
        if (!conn.outq.empty()) events |= POLLOUT;
        fds.push_back(pollfd{fd, events, 0});
      }
      const int ready = ::poll(fds.data(), fds.size(), 200);
      if (ready < 0 && errno != EINTR) break;

      if (fds[0].revents & POLLIN) {
        unsigned char drain[64];
        while (::read(wake_rd, drain, sizeof(drain)) > 0) {
        }
      }
      if (fds[1].revents & POLLIN) accept_new();
      for (std::size_t i = 2; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        const auto it = conns.find(fds[i].fd);
        if (it == conns.end()) continue;
        if (fds[i].revents & POLLOUT) flush(it->second);
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          on_readable(it->second);
        }
      }
      check_heartbeats();
      while (!pending_dead.empty()) {
        const int fd = *pending_dead.begin();
        pending_dead.erase(pending_dead.begin());
        disconnect(fd);
      }
    }

    // Graceful shutdown: tell every worker to drain and exit; best-effort
    // (a full socket buffer just means the worker sees EOF instead). A
    // HARD stop skips the farewell — peers observe the bare EOF a
    // SIGKILLed daemon leaves, and journals stay on disk for resume.
    const bool hard = hard_stopping.load(std::memory_order_relaxed);
    const std::vector<unsigned char> bye =
        encode_frame(MsgType::kShutdown, {});
    for (auto& [fd, conn] : conns) {
      if (!hard && conn.kind == Connection::Kind::kWorker) {
        (void)chaos_send(fd, bye.data(), bye.size(), MSG_DONTWAIT);
      }
      close_fd(fd);
    }
    conns.clear();
  }
};

CampaignDaemon::CampaignDaemon(ServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

CampaignDaemon::~CampaignDaemon() = default;

bool CampaignDaemon::start(std::string* error) {
  const std::optional<Address> addr = parse_address(impl_->opt.listen);
  if (!addr.has_value()) {
    if (error) *error = "malformed listen address: " + impl_->opt.listen;
    return false;
  }
  impl_->listen_addr = *addr;
  impl_->listen_fd = listen_on(*addr, error);
  if (impl_->listen_fd < 0) return false;
  set_nonblocking(impl_->listen_fd);
  impl_->resolved_address = local_address(impl_->listen_fd, *addr);

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    if (error) *error = "pipe failed";
    return false;
  }
  impl_->wake_rd = pipe_fds[0];
  impl_->wake_wr = pipe_fds[1];
  set_nonblocking(impl_->wake_rd);

  if (!impl_->opt.store_dir.empty()) {
    impl_->store =
        std::make_unique<store::CampaignStore>(impl_->opt.store_dir);
  }
  return true;
}

const std::string& CampaignDaemon::address() const {
  return impl_->resolved_address;
}

void CampaignDaemon::run() {
  SCK_EXPECTS(impl_->listen_fd >= 0 && "call start() first");
  impl_->run();
}

void CampaignDaemon::stop() {
  impl_->stopping.store(true, std::memory_order_relaxed);
  const unsigned char byte = 1;
  if (impl_->wake_wr >= 0) {
    (void)!::write(impl_->wake_wr, &byte, 1);
  }
}

void CampaignDaemon::stop_hard() {
  impl_->hard_stopping.store(true, std::memory_order_relaxed);
  stop();
}

DaemonCounters CampaignDaemon::counters() const {
  const std::lock_guard<std::mutex> lock(impl_->counters_mutex);
  return impl_->counters;
}

}  // namespace sck::service
