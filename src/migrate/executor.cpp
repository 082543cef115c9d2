#include "migrate/executor.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <utility>

#include "common/error.h"
#include "fault/degraded_network.h"
#include "obs/collector.h"
#include "recover/wal.h"
#include "sim/netsim.h"

namespace geomap::migrate {

void MigrationOptions::validate() const {
  GEOMAP_CHECK_ARG(bytes_per_process >= 0,
                   "bytes_per_process must be non-negative, got "
                       << bytes_per_process);
  GEOMAP_CHECK_ARG(chunk_bytes > 0,
                   "chunk_bytes must be positive, got " << chunk_bytes);
  GEOMAP_CHECK_ARG(link_concurrency >= 1,
                   "link_concurrency must be >= 1, got " << link_concurrency);
  GEOMAP_CHECK_ARG(max_copy_attempts >= 1,
                   "max_copy_attempts must be >= 1, got " << max_copy_attempts);
  GEOMAP_CHECK_ARG(max_replans >= 0,
                   "max_replans must be non-negative, got " << max_replans);
  GEOMAP_CHECK_ARG(max_emergency_attempts >= 1,
                   "max_emergency_attempts must be >= 1, got "
                       << max_emergency_attempts);
  GEOMAP_CHECK_ARG(prepare_timeout > 0,
                   "prepare_timeout must be positive, got " << prepare_timeout);
}

void emit_migration_event(obs::EventLog& log, const fault::MigrationEvent& e,
                          Seconds downtime) {
  // Chunk landings are dense wire traffic; the timeline series carry them.
  if (e.kind == fault::MigrationEventKind::kChunk) return;
  const bool trouble = e.kind == fault::MigrationEventKind::kRollback ||
                       e.kind == fault::MigrationEventKind::kReplan;
  std::vector<obs::EventField> fields;
  fields.reserve(4);
  fields.push_back(obs::field("process", e.process));
  fields.push_back(obs::field("from", e.site_from));
  fields.push_back(obs::field("to", e.site_to));
  if (e.kind == fault::MigrationEventKind::kCommit && e.process >= 0)
    fields.push_back(obs::field("downtime", downtime));
  log.emit(e.t, trouble ? obs::EventSeverity::kWarn : obs::EventSeverity::kInfo,
           "migrate", fault::to_string(e.kind), std::move(fields));
}

const char* to_string(ProcessOutcome outcome) {
  switch (outcome) {
    case ProcessOutcome::kStayed:
      return "stayed";
    case ProcessOutcome::kCommitted:
      return "committed";
    case ProcessOutcome::kRolledBack:
      return "rolled-back";
    case ProcessOutcome::kAbandoned:
      return "abandoned";
  }
  return "?";
}

namespace {

/// The executor's discrete-event engine. Single-threaded; all state is
/// plain members and every scheduling decision is a pure function of the
/// inputs, so runs are deterministic bit-for-bit.
class Engine {
 public:
  Engine(const mapping::MappingProblem& problem, const Mapping& current,
         const Mapping& target, const fault::FaultPlan& plan,
         Seconds start_time, const MigrationOptions& options)
      : problem_(problem),
        plan_(plan),
        degraded_(problem.network, plan),
        options_(options),
        start_(start_time),
        n_(problem.num_processes()),
        m_(problem.num_sites()) {
    options_.validate();
    mapping::validate_mapping(problem_, current);
    GEOMAP_CHECK_ARG(target.size() == current.size(),
                     "target mapping size " << target.size()
                                            << " != current size "
                                            << current.size());
    for (SiteId s : target)
      GEOMAP_CHECK_ARG(s >= 0 && s < m_, "target maps to invalid site " << s);

    if (options_.collector != nullptr) {
      obs::Collector& c = *options_.collector;
      exec_span_ = c.tracer().span("migrate/execute", "migrate");
      exec_phase_ = c.profile().phase("migrate:execute");
      obs_chunks_ = &c.metrics().counter("migration.chunks");
      obs_chunk_retries_ = &c.metrics().counter("migration.chunk_retries");
      obs_chunk_timeouts_ = &c.metrics().counter("migration.chunk_timeouts");
      obs_rollbacks_ = &c.metrics().counter("migration.rollbacks");
      obs_replans_ = &c.metrics().counter("migration.replans");
      obs_commits_ = &c.metrics().counter("migration.commits");
      obs_bytes_ = &c.metrics().counter("migration.bytes_sent");
      obs_chunk_seconds_ = &c.metrics().histogram("migration.chunk_seconds");
      obs_downtime_ = &c.metrics().histogram("migration.downtime_seconds");
      obs_prepare_wait_ =
          &c.metrics().histogram("migration.prepare_wait_seconds");
      elog_ = &c.events();
      timeline_ = &c.timeline();
      tl_migration_.assign(static_cast<std::size_t>(m_) * m_, nullptr);
      tl_latency_.assign(static_cast<std::size_t>(m_) * m_, nullptr);
    }

    home_ = current;
    resident_.assign(static_cast<std::size_t>(m_), 0);
    reserved_.assign(static_cast<std::size_t>(m_), 0);
    for (SiteId s : home_) resident_[static_cast<std::size_t>(s)] += 1;
    link_free_.assign(static_cast<std::size_t>(m_) * m_, start_);
    link_inflight_.assign(static_cast<std::size_t>(m_) * m_, 0);
    link_waiting_.resize(static_cast<std::size_t>(m_) * m_);
    prepare_waiting_.resize(static_cast<std::size_t>(m_));

    procs_.resize(static_cast<std::size_t>(n_));
    chunks_total_ = options_.bytes_per_process > 0
                        ? static_cast<int>(std::ceil(options_.bytes_per_process /
                                                     options_.chunk_bytes))
                        : 0;
    report_.start_time = start_;
    report_.processes.resize(static_cast<std::size_t>(n_));
    for (ProcessId p = 0; p < n_; ++p) {
      Proc& ps = proc(p);
      ps.dest = target[static_cast<std::size_t>(p)];
      ProcessMigrationRecord& rec = record(p);
      rec.process = p;
      rec.source = home(p);
      if (ps.dest != home(p)) {
        rec.planned_dest = ps.dest;
        report_.processes_planned += 1;
        report_.bytes_planned += options_.bytes_per_process;
        ps.phase = Phase::kWaitPrepare;
        ps.prepare_requested = start_;
        push(start_, Event::kPrepare, p, ps.epoch);
      }
    }

    // Application replay tokens (one per process with traffic).
    for (ProcessId p = 0; p < n_; ++p) {
      if (problem_.comm.row(p).size() > 0) push(start_, Event::kAppEdge, p, 0);
    }

    // Watch every permanent outage that starts inside the run: a site
    // whose only occupants are *committed* (not mid-copy) would otherwise
    // die unnoticed — no chunk traffic touches it.
    for (const fault::FaultEvent& e : plan_.events()) {
      if (e.kind != fault::FaultKind::kSiteOutage) continue;
      if (e.end != fault::kNoEnd) continue;
      push(std::max(start_, e.start), Event::kOutageWatch, /*proc=*/-1, 0,
           e.site);
    }
  }

  MigrationReport run() {
    while (!queue_.empty()) {
      const Event e = queue_.top();
      queue_.pop();
      now_ = std::max(now_, e.t);
      switch (e.kind) {
        case Event::kAppEdge:
          handle_app_edge(e.proc, e.t);
          break;
        case Event::kPrepare:
          handle_prepare(e.proc, e.t, e.epoch);
          break;
        case Event::kPrepareDeadline:
          handle_prepare_deadline(e.proc, e.t, e.epoch);
          break;
        case Event::kChunk:
          handle_chunk(e.proc, e.t, e.epoch);
          break;
        case Event::kSlotFree:
          handle_slot_free(e.site, e.t);
          break;
        case Event::kCommitApply:
          handle_commit_apply(e.proc, e.t, e.epoch);
          break;
        case Event::kOutageWatch:
          handle_watch(e.site, e.t);
          break;
      }
    }
    finalize();
    if (options_.collector != nullptr) {
      options_.collector->mem().note(
          "migration.journal",
          report_.events.size() * sizeof(fault::MigrationEvent));
      exec_phase_.count("journal_events", report_.events.size());
      exec_phase_.end();
    }
    return std::move(report_);
  }

 private:
  enum class Phase {
    kIdle,
    kWaitPrepare,
    kCopying,
    kCommitPending,
    kCommitted,
    kRolledBack,
    kAbandoned,
  };

  struct Proc {
    Phase phase = Phase::kIdle;
    SiteId dest = -1;     // current migration destination
    SiteId serving = -1;  // site serving state while copying
    int epoch = 0;        // bumps on rollback/redirect; stales old events
    int chunks_done = 0;
    int emergency_attempts = 0;
    bool deadline_armed = false;
    Seconds prepare_requested = -1;
    Seconds last_chunk_start = 0;
    // Application replay cursor.
    std::size_t app_edge = 0;
    Seconds parked_at = -1;  // >= 0 while the next app edge is parked
  };

  struct Event {
    Seconds t = 0;
    std::uint64_t seq = 0;
    enum Kind {
      kAppEdge,
      kPrepare,
      kPrepareDeadline,
      kChunk,
      kSlotFree,
      kCommitApply,
      kOutageWatch,
    } kind = kAppEdge;
    ProcessId proc = -1;
    int epoch = 0;
    SiteId site = -1;  // kSlotFree: link index; kOutageWatch: site

    bool operator>(const Event& other) const {
      if (t != other.t) return t > other.t;
      return seq > other.seq;
    }
  };

  Proc& proc(ProcessId p) { return procs_[static_cast<std::size_t>(p)]; }
  ProcessMigrationRecord& record(ProcessId p) {
    return report_.processes[static_cast<std::size_t>(p)];
  }
  SiteId home(ProcessId p) const {
    return home_[static_cast<std::size_t>(p)];
  }
  std::size_t link_index(SiteId src, SiteId dst) const {
    return static_cast<std::size_t>(src) * m_ + static_cast<std::size_t>(dst);
  }

  void push(Seconds t, Event::Kind kind, ProcessId p, int epoch,
            SiteId site = -1) {
    queue_.push(Event{t, seq_++, kind, p, epoch, site});
  }

  bool permanently_down(SiteId site, Seconds t) const {
    return plan_.site_down(site, t) &&
           plan_.next_site_up(site, t) == fault::kNoEnd;
  }

  void journal(fault::MigrationEventKind kind, Seconds t, ProcessId p,
               SiteId from, SiteId to, Bytes bytes = 0) {
    const fault::MigrationEvent e{kind, t, p, from, to, bytes};
    const bool commit = kind == fault::MigrationEventKind::kCommit;
    const Seconds downtime = commit && p >= 0 ? record(p).downtime : 0.0;
    // The journal is the certification input, the event log the live feed.
    if (elog_ != nullptr) emit_migration_event(*elog_, e, downtime);
    if (options_.wal != nullptr) {
      // Non-chunk transitions sync so the record is durable before the
      // engine acts on it. Chunk records ride along with the next sync —
      // losing an unsynced chunk tail only under-counts copy progress,
      // which redo re-sends anyway.
      recover::WalRecordType wtype = recover::WalRecordType::kMigChunk;
      switch (kind) {
        case fault::MigrationEventKind::kReserve:
          wtype = recover::WalRecordType::kMigReserve;
          break;
        case fault::MigrationEventKind::kRelease:
          wtype = recover::WalRecordType::kMigRelease;
          break;
        case fault::MigrationEventKind::kChunk:
          wtype = recover::WalRecordType::kMigChunk;
          break;
        case fault::MigrationEventKind::kCommit:
          wtype = recover::WalRecordType::kMigCommit;
          break;
        case fault::MigrationEventKind::kRollback:
          wtype = recover::WalRecordType::kMigRollback;
          break;
        case fault::MigrationEventKind::kReplan:
          wtype = recover::WalRecordType::kMigReplan;
          break;
      }
      std::optional<Seconds> wal_downtime;
      if (commit) wal_downtime = downtime;
      options_.wal->append(wtype, t,
                           recover::encode_mig_payload(options_.wal_tenant, p,
                                                       from, to, bytes,
                                                       wal_downtime));
      if (kind != fault::MigrationEventKind::kChunk) options_.wal->sync();
    }
    report_.events.push_back(e);
  }

  void note_activity(Seconds t) { migration_finish_ = std::max(migration_finish_, t); }

  /// Placement legality for replan/emergency targets: pins to
  /// permanently dead sites are released (their residency can no longer
  /// be honoured), everything else follows the problem's constraints.
  bool placement_allowed(ProcessId p, SiteId s, Seconds t) const {
    if (!problem_.constraints.empty()) {
      const SiteId pin = problem_.constraints[static_cast<std::size_t>(p)];
      if (pin != kUnconstrained && !permanently_down(pin, t)) return pin == s;
    }
    return mapping::site_allowed(problem_.allowed_sites, p, s);
  }

  /// Cheapest live source for shipping state into `dst` at time t
  /// (replica fetch — the dead source cannot serve); -1 when every other
  /// site is permanently down.
  SiteId cheapest_source(SiteId dst, Seconds t) const {
    SiteId best = -1;
    Seconds best_time = std::numeric_limits<double>::infinity();
    for (SiteId s = 0; s < m_; ++s) {
      if (s == dst || permanently_down(s, t)) continue;
      const Seconds w = degraded_.transfer_time(s, dst, options_.chunk_bytes, t);
      if (w < best_time) {
        best_time = w;
        best = s;
      }
    }
    return best;
  }

  // -- Application replay ---------------------------------------------------

  void handle_app_edge(ProcessId p, Seconds t) {
    Proc& ps = proc(p);
    const trace::CommMatrix::Row row = problem_.comm.row(p);
    if (ps.app_edge >= row.size()) return;
    const SiteId src = home(p);
    const SiteId dst = home(row.dst[ps.app_edge]);

    const Seconds up = sim::outage_clear_time(plan_, src, dst, t);
    if (up == fault::kNoEnd) {
      // An endpoint's committed home is permanently dead: the flow can
      // only resume once a commit moves that endpoint. Park it; every
      // commit unparks all parked flows.
      ps.parked_at = t;
      parked_.push_back(p);
      return;
    }
    Seconds start = t < up ? up : t;
    if (src != dst) {
      const std::size_t link = link_index(src, dst);
      start = std::max(start, link_free_[link]);
    }
    const double count = row.count[ps.app_edge];
    const Bytes volume = row.volume[ps.app_edge];
    const Seconds wire = degraded_.message_cost(src, dst, count, volume, start);
    const Seconds end = start + wire;
    if (src != dst) {
      link_free_[link_index(src, dst)] = end;
      if (timeline_ != nullptr) {
        obs::TimeSeries*& series = tl_latency_[link_index(src, dst)];
        if (series == nullptr) {
          series = &timeline_->series(
              "link.latency_ratio",
              options_.timeline_label_prefix + obs::link_label(src, dst));
        }
        const Seconds healthy = count * degraded_.base().latency(src, dst) +
                                volume / degraded_.base().bandwidth(src, dst);
        if (healthy > 0) series->record(start, wire / healthy);
      }
    }
    report_.app_makespan = std::max(report_.app_makespan, end - start_);
    ps.app_edge += 1;
    if (ps.app_edge < row.size()) push(end, Event::kAppEdge, p, 0);
  }

  void unpark_all(Seconds t) {
    if (parked_.empty()) return;
    for (ProcessId p : parked_) {
      Proc& ps = proc(p);
      if (ps.parked_at >= 0) {
        report_.app_blocked_seconds += t - ps.parked_at;
        ps.parked_at = -1;
      }
      push(t, Event::kAppEdge, p, 0);
    }
    parked_.clear();
  }

  // -- Prepare --------------------------------------------------------------

  void handle_prepare(ProcessId p, Seconds t, int epoch) {
    Proc& ps = proc(p);
    if (ps.epoch != epoch || ps.phase != Phase::kWaitPrepare) return;
    const SiteId d = ps.dest;
    if (permanently_down(d, t)) {
      trigger_replan(t);
      return;
    }
    if (plan_.site_down(d, t)) {
      push(plan_.next_site_up(d, t), Event::kPrepare, p, ps.epoch);
      return;
    }
    const std::size_t di = static_cast<std::size_t>(d);
    if (resident_[di] + reserved_[di] < problem_.capacities[di]) {
      reserved_[di] += 1;
      journal(fault::MigrationEventKind::kReserve, t, p, home(p), d);
      note_activity(t);
      ProcessMigrationRecord& rec = record(p);
      rec.copy_attempts += 1;
      if (rec.prepare_time < 0) rec.prepare_time = t;
      if (obs_prepare_wait_ != nullptr && ps.prepare_requested >= 0)
        obs_prepare_wait_->record(t - ps.prepare_requested);
      ps.phase = Phase::kCopying;
      ps.deadline_armed = false;
      ps.serving = permanently_down(home(p), t) ? cheapest_source(d, t)
                                                : home(p);
      if (ps.serving < 0) {
        abandon(p, t);
        return;
      }
      if (chunks_total_ == 0) {
        // Stateless process: straight to cutover.
        ps.last_chunk_start = t;
        begin_commit(p, t);
        return;
      }
      // Prepare handshake: one control RTT before the first chunk.
      push(t + degraded_.latency(ps.serving, d, t), Event::kChunk, p, ps.epoch);
    } else {
      prepare_waiting_[di].push_back({p, ps.epoch});
      if (!ps.deadline_armed) {
        ps.deadline_armed = true;
        push(t + options_.prepare_timeout, Event::kPrepareDeadline, p,
             ps.epoch);
      }
    }
  }

  void handle_prepare_deadline(ProcessId p, Seconds t, int epoch) {
    Proc& ps = proc(p);
    if (ps.epoch != epoch || ps.phase != Phase::kWaitPrepare) return;
    // Capacity never freed up: break the (possibly cyclic) wait by
    // rolling this migration back.
    record(p).rollbacks += 1;
    report_.rollbacks += 1;
    if (obs_rollbacks_ != nullptr) obs_rollbacks_->add();
    journal(fault::MigrationEventKind::kRollback, t, p, home(p), ps.dest);
    note_activity(t);
    ps.epoch += 1;
    settle_rolled_back(p, t);
  }

  /// Capacity freed on `site`: wake the next prepare waiter, if any.
  void capacity_freed(SiteId site, Seconds t) {
    auto& waiting = prepare_waiting_[static_cast<std::size_t>(site)];
    while (!waiting.empty()) {
      const auto [p, epoch] = waiting.front();
      waiting.pop_front();
      if (proc(p).epoch == epoch && proc(p).phase == Phase::kWaitPrepare) {
        push(t, Event::kPrepare, p, epoch);
        return;
      }
    }
  }

  // -- Copy -----------------------------------------------------------------

  void handle_chunk(ProcessId p, Seconds t, int epoch) {
    Proc& ps = proc(p);
    if (ps.epoch != epoch || ps.phase != Phase::kCopying) return;
    const SiteId d = ps.dest;
    if (permanently_down(d, t)) {
      trigger_replan(t);
      return;
    }
    if (plan_.site_down(d, t)) {
      // Destination outage mid-copy: partial state is lost with it. Roll
      // back and re-prepare once the outage clears.
      rollback_copy(p, t, /*resume_at=*/plan_.next_site_up(d, t));
      return;
    }
    if (permanently_down(ps.serving, t)) {
      const SiteId replacement = cheapest_source(d, t);
      if (replacement < 0) {
        abandon(p, t);
        return;
      }
      ps.serving = replacement;
      record(p).source_switches += 1;
      report_.source_switches += 1;
    }
    const Seconds up = sim::outage_clear_time(plan_, ps.serving, d, t);
    if (up > t) {
      push(up, Event::kChunk, p, ps.epoch);
      return;
    }

    const SiteId s = ps.serving;
    const Bytes remaining =
        options_.bytes_per_process - ps.chunks_done * options_.chunk_bytes;
    const Bytes bytes = std::min(options_.chunk_bytes, remaining);
    const std::size_t link = link_index(s, d);
    if (s != d && link_inflight_[link] >= options_.link_concurrency) {
      link_waiting_[link].push_back({p, ps.epoch});
      return;
    }
    if (s != d) link_inflight_[link] += 1;

    // Loss detection + backoff per attempt (deterministic: pure hash of
    // plan seed / link / stream / attempt). A lost attempt still put the
    // chunk on the wire — it counts against the byte budget.
    ProcessMigrationRecord& rec = record(p);
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(p) << 32) ^
        (static_cast<std::uint64_t>(rec.copy_attempts) << 20) ^
        static_cast<std::uint64_t>(ps.chunks_done);
    Seconds ta = t;
    bool delivered = false;
    for (int attempt = 0; attempt <= options_.retry.max_retries; ++attempt) {
      if (!plan_.message_lost(s, d, ta, stream, static_cast<std::uint64_t>(attempt))) {
        delivered = true;
        break;
      }
      rec.chunk_retries += 1;
      report_.chunk_retries += 1;
      if (obs_chunk_retries_ != nullptr) obs_chunk_retries_->add();
      rec.bytes_sent += bytes;
      report_.bytes_sent += bytes;
      journal(fault::MigrationEventKind::kChunk, ta, p, s, d, bytes);
      ta += options_.retry.detect_timeout + options_.retry.backoff(attempt + 1);
    }
    if (!delivered) {
      rec.chunk_timeouts += 1;
      report_.chunk_timeouts += 1;
      if (obs_chunk_timeouts_ != nullptr) obs_chunk_timeouts_->add();
      if (s != d) {
        link_inflight_[link] -= 1;
        push(ta, Event::kSlotFree, -1, 0, static_cast<SiteId>(link));
      }
      rollback_copy(p, ta, /*resume_at=*/ta);
      return;
    }

    Seconds start = ta;
    if (s != d) start = std::max(start, link_free_[link]);
    const Seconds wire = degraded_.transfer_time(s, d, bytes, start);
    const Seconds end = start + wire;
    if (s != d) link_free_[link] = end;
    rec.bytes_sent += bytes;
    report_.bytes_sent += bytes;
    if (obs_chunks_ != nullptr) obs_chunks_->add();
    if (obs_bytes_ != nullptr) obs_bytes_->add(static_cast<std::uint64_t>(bytes));
    if (obs_chunk_seconds_ != nullptr) obs_chunk_seconds_->record(wire);
    if (timeline_ != nullptr && s != d) {
      obs::TimeSeries*& series = tl_migration_[link];
      if (series == nullptr) {
        series = &timeline_->series(
            "migration.bytes",
            options_.timeline_label_prefix + obs::link_label(s, d));
      }
      series->record(start, bytes);
    }
    journal(fault::MigrationEventKind::kChunk, end, p, s, d, bytes);
    note_activity(end);
    ps.chunks_done += 1;
    if (s != d) {
      link_inflight_[link] -= 1;
      push(end, Event::kSlotFree, -1, 0, static_cast<SiteId>(link));
    }
    if (ps.chunks_done < chunks_total_) {
      push(end, Event::kChunk, p, ps.epoch);
    } else {
      ps.last_chunk_start = start;
      begin_commit(p, end);
    }
  }

  void handle_slot_free(SiteId link, Seconds t) {
    auto& waiting = link_waiting_[static_cast<std::size_t>(link)];
    while (!waiting.empty()) {
      const auto [p, epoch] = waiting.front();
      waiting.pop_front();
      if (proc(p).epoch == epoch && proc(p).phase == Phase::kCopying) {
        push(t, Event::kChunk, p, epoch);
        return;
      }
    }
  }

  // -- Commit ---------------------------------------------------------------

  void begin_commit(ProcessId p, Seconds t) {
    Proc& ps = proc(p);
    ProcessMigrationRecord& rec = record(p);
    ps.phase = Phase::kCommitPending;
    // Commit handshake: a small control message, retried on loss. After
    // the retry budget the cutover is forced through — the destination
    // has the full state, only the acknowledgement is in doubt, and a
    // duplicate commit is idempotent (the kCommitApply event is guarded
    // by epoch and phase, so it applies exactly once).
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(p) << 32) ^ 0xC0117EDULL;
    Seconds tc = t;
    bool acked = false;
    for (int attempt = 0; attempt <= options_.retry.max_retries; ++attempt) {
      if (!plan_.message_lost(ps.serving, ps.dest, tc, stream,
                              static_cast<std::uint64_t>(attempt))) {
        acked = true;
        break;
      }
      rec.commit_retries += 1;
      tc += options_.retry.detect_timeout + options_.retry.backoff(attempt + 1);
    }
    if (!acked) rec.commit_forced = true;
    push(tc + degraded_.latency(ps.serving, ps.dest, tc), Event::kCommitApply,
         p, ps.epoch);
  }

  void handle_commit_apply(ProcessId p, Seconds t, int epoch) {
    Proc& ps = proc(p);
    if (ps.epoch != epoch || ps.phase != Phase::kCommitPending) return;
    if (permanently_down(ps.dest, t)) {
      // The destination died in the commit window — the copied state
      // died with it. Roll back; the re-prepare will discover the dead
      // destination and replan.
      ps.phase = Phase::kCopying;  // rollback_copy expects an active copy
      rollback_copy(p, t, /*resume_at=*/t);
      return;
    }
    if (plan_.site_down(ps.dest, t)) {
      push(plan_.next_site_up(ps.dest, t), Event::kCommitApply, p, ps.epoch);
      return;
    }
    const SiteId old_home = home(p);
    const SiteId d = ps.dest;
    ProcessMigrationRecord& rec = record(p);
    // Downtime is determined at commit; compute it before journaling so
    // the streamed commit event carries it.
    rec.downtime = t - ps.last_chunk_start;
    journal(fault::MigrationEventKind::kCommit, t, p, old_home, d);
    note_activity(t);
    resident_[static_cast<std::size_t>(old_home)] -= 1;
    reserved_[static_cast<std::size_t>(d)] -= 1;
    resident_[static_cast<std::size_t>(d)] += 1;
    home_[static_cast<std::size_t>(p)] = d;
    ps.phase = Phase::kCommitted;
    ps.epoch += 1;
    rec.outcome = ProcessOutcome::kCommitted;
    rec.commit_time = t;
    report_.max_downtime = std::max(report_.max_downtime, rec.downtime);
    report_.total_downtime += rec.downtime;
    if (obs_commits_ != nullptr) obs_commits_->add();
    if (obs_downtime_ != nullptr) obs_downtime_->record(rec.downtime);
    if (options_.collector != nullptr && rec.prepare_time >= 0) {
      options_.collector->tracer().record_virtual(p, "migrate/copy", "migrate",
                                                  rec.prepare_time, t);
      options_.collector->tracer().record_virtual(
          p, "migrate/cutover", "migrate", ps.last_chunk_start, t);
    }
    // The old slot frees a prepare waiter; the new home unparks any
    // application flow that was waiting out a dead endpoint.
    capacity_freed(old_home, t);
    unpark_all(t);
  }

  // -- Rollback / replan ----------------------------------------------------

  /// Abort an in-flight copy at time t: release the reservation, discard
  /// partial state, and either re-prepare at `resume_at` (attempts
  /// remaining) or settle at the source.
  void rollback_copy(ProcessId p, Seconds t, Seconds resume_at) {
    Proc& ps = proc(p);
    ProcessMigrationRecord& rec = record(p);
    journal(fault::MigrationEventKind::kRollback, t, p, home(p), ps.dest);
    journal(fault::MigrationEventKind::kRelease, t, p, home(p), ps.dest);
    note_activity(t);
    reserved_[static_cast<std::size_t>(ps.dest)] -= 1;
    rec.rollbacks += 1;
    report_.rollbacks += 1;
    if (obs_rollbacks_ != nullptr) obs_rollbacks_->add();
    ps.chunks_done = 0;
    ps.epoch += 1;
    capacity_freed(ps.dest, t);
    if (rec.copy_attempts < options_.max_copy_attempts) {
      ps.phase = Phase::kWaitPrepare;
      ps.deadline_armed = false;
      ps.prepare_requested = resume_at;
      push(resume_at, Event::kPrepare, p, ps.epoch);
    } else {
      settle_rolled_back(p, t);
    }
  }

  /// A migration gave up (attempts or prepare deadline exhausted): the
  /// process stays at its source if that source is alive; a dead source
  /// forces emergency placement.
  void settle_rolled_back(ProcessId p, Seconds t) {
    Proc& ps = proc(p);
    if (!permanently_down(home(p), t)) {
      ps.phase = Phase::kRolledBack;
      record(p).outcome = ProcessOutcome::kRolledBack;
      return;
    }
    emergency_place(p, t);
  }

  /// Last-resort direct placement for a process stranded on a dead site:
  /// cheapest live site with free capacity, no mapper involved.
  void emergency_place(ProcessId p, Seconds t) {
    Proc& ps = proc(p);
    if (ps.emergency_attempts >= options_.max_emergency_attempts) {
      abandon(p, t);
      return;
    }
    ps.emergency_attempts += 1;
    SiteId best = -1;
    Seconds best_time = std::numeric_limits<double>::infinity();
    for (SiteId s = 0; s < m_; ++s) {
      const std::size_t si = static_cast<std::size_t>(s);
      if (permanently_down(s, t) || s == home(p)) continue;
      if (resident_[si] + reserved_[si] >= problem_.capacities[si]) continue;
      if (!placement_allowed(p, s, t)) continue;
      const SiteId src = cheapest_source(s, t);
      if (src < 0) continue;
      const Seconds w = degraded_.transfer_time(src, s, options_.chunk_bytes, t);
      if (w < best_time) {
        best_time = w;
        best = s;
      }
    }
    if (best < 0) {
      abandon(p, t);
      return;
    }
    ps.dest = best;
    ps.phase = Phase::kWaitPrepare;
    ps.epoch += 1;
    ps.deadline_armed = false;
    ps.prepare_requested = t;
    push(t, Event::kPrepare, p, ps.epoch);
  }

  void abandon(ProcessId p, Seconds t) {
    Proc& ps = proc(p);
    ps.phase = Phase::kAbandoned;
    ps.epoch += 1;
    record(p).outcome = ProcessOutcome::kAbandoned;
    report_.complete = false;
    note_activity(t);
  }

  void handle_watch(SiteId site, Seconds t) {
    if (!permanently_down(site, t)) return;
    // Anything committed to (or migrating onto) the dead site needs a
    // new destination; in-flight copies discover it through their own
    // chunk traffic, but settled processes would never notice.
    bool stranded = false;
    for (ProcessId p = 0; p < n_ && !stranded; ++p) {
      const Proc& ps = proc(p);
      const bool active =
          ps.phase == Phase::kWaitPrepare || ps.phase == Phase::kCopying ||
          ps.phase == Phase::kCommitPending;
      if (home(p) == site && !active) stranded = true;
      if (active && ps.dest == site) stranded = true;
    }
    if (stranded) trigger_replan(t);
  }

  void trigger_replan(Seconds t) {
    const std::vector<SiteId> dead = [&] {
      std::vector<SiteId> out;
      for (SiteId s = 0; s < m_; ++s) {
        if (permanently_down(s, t)) out.push_back(s);
      }
      return out;
    }();

    Mapping new_target;
    bool mapped = false;
    if (report_.replans < options_.max_replans) {
      report_.replans += 1;
      if (obs_replans_ != nullptr) obs_replans_->add();
      journal(fault::MigrationEventKind::kReplan, t, -1, -1, -1);
      note_activity(t);
      mapping::MappingProblem rebuilt = problem_;
      rebuilt.network = degraded_.snapshot(t);
      for (SiteId s : dead)
        rebuilt.capacities[static_cast<std::size_t>(s)] = 0;
      if (!rebuilt.constraints.empty()) {
        for (SiteId& pin : rebuilt.constraints) {
          if (pin != kUnconstrained && permanently_down(pin, t))
            pin = kUnconstrained;
        }
      }
      if (!rebuilt.allowed_sites.empty()) {
        for (auto& allowed : rebuilt.allowed_sites) {
          for (SiteId s : dead) {
            allowed.erase(std::remove(allowed.begin(), allowed.end(), s),
                          allowed.end());
          }
        }
      }
      try {
        rebuilt.validate();
        core::GeoDistMapper mapper(options_.mapper);
        mapper.set_collector(options_.collector);
        new_target = mapper.map(rebuilt);
        mapped = true;
      } catch (const Error&) {
        mapped = false;  // infeasible — fall through to emergency placement
      }
    }

    for (ProcessId p = 0; p < n_; ++p) {
      Proc& ps = proc(p);
      const bool active =
          ps.phase == Phase::kWaitPrepare || ps.phase == Phase::kCopying;
      const SiteId desired =
          mapped ? new_target[static_cast<std::size_t>(p)] : SiteId{-1};
      if (active) {
        if (mapped && desired == ps.dest) continue;  // plan unchanged
        if (!mapped && !permanently_down(ps.dest, t)) continue;
        // Redirect: abort the current transfer, then re-prepare toward
        // the new destination (or settle when the mapper now keeps the
        // process at its live home).
        if (ps.phase == Phase::kCopying) {
          journal(fault::MigrationEventKind::kRollback, t, p, home(p), ps.dest);
          journal(fault::MigrationEventKind::kRelease, t, p, home(p), ps.dest);
          reserved_[static_cast<std::size_t>(ps.dest)] -= 1;
          record(p).rollbacks += 1;
          report_.rollbacks += 1;
          if (obs_rollbacks_ != nullptr) obs_rollbacks_->add();
          ps.chunks_done = 0;
          capacity_freed(ps.dest, t);
        }
        ps.epoch += 1;
        if (mapped && desired == home(p) && !permanently_down(home(p), t)) {
          ps.phase = Phase::kRolledBack;
          record(p).outcome = ProcessOutcome::kRolledBack;
          continue;
        }
        if (mapped) {
          ps.dest = desired;
          ps.phase = Phase::kWaitPrepare;
          ps.deadline_armed = false;
          ps.prepare_requested = t;
          push(t, Event::kPrepare, p, ps.epoch);
        } else {
          settle_rolled_back(p, t);
        }
      } else if ((ps.phase == Phase::kIdle || ps.phase == Phase::kCommitted ||
                  ps.phase == Phase::kRolledBack) &&
                 permanently_down(home(p), t)) {
        // Settled on a site that just died: open a fresh migration.
        if (mapped && desired != home(p)) {
          ps.dest = desired;
          ps.phase = Phase::kWaitPrepare;
          ps.epoch += 1;
          ps.deadline_armed = false;
          ps.prepare_requested = t;
          if (record(p).planned_dest < 0) record(p).planned_dest = desired;
          push(t, Event::kPrepare, p, ps.epoch);
        } else {
          emergency_place(p, t);
        }
      }
    }
  }

  // -- Finalization ---------------------------------------------------------

  void finalize() {
    report_.final_mapping = home_;
    report_.finish_time = std::max(now_, start_);
    report_.migration_seconds =
        migration_finish_ > start_ ? migration_finish_ - start_ : 0.0;
    for (ProcessId p = 0; p < n_; ++p) {
      ProcessMigrationRecord& rec = record(p);
      rec.final_home = home(p);
      rec.copy_attempts = std::max(rec.copy_attempts, 0);
      switch (rec.outcome) {
        case ProcessOutcome::kCommitted:
          report_.processes_committed += 1;
          break;
        case ProcessOutcome::kRolledBack:
          report_.processes_rolled_back += 1;
          break;
        case ProcessOutcome::kAbandoned:
          report_.processes_abandoned += 1;
          break;
        case ProcessOutcome::kStayed:
          break;
      }
    }
    // Flows still parked at exit belong to abandoned (never-recovered)
    // endpoints; their block time runs to the end of the journal.
    for (ProcessId p : parked_) {
      Proc& ps = proc(p);
      if (ps.parked_at >= 0) {
        report_.app_blocked_seconds += report_.finish_time - ps.parked_at;
        ps.parked_at = -1;
      }
    }
    std::stable_sort(report_.events.begin(), report_.events.end(),
                     [](const fault::MigrationEvent& a,
                        const fault::MigrationEvent& b) { return a.t < b.t; });
  }

  const mapping::MappingProblem& problem_;
  const fault::FaultPlan& plan_;
  fault::DegradedNetworkModel degraded_;
  MigrationOptions options_;
  const Seconds start_;
  const int n_;
  const int m_;

  Mapping home_;
  std::vector<int> resident_;
  std::vector<int> reserved_;
  std::vector<Seconds> link_free_;
  std::vector<int> link_inflight_;
  std::vector<std::deque<std::pair<ProcessId, int>>> link_waiting_;
  std::vector<std::deque<std::pair<ProcessId, int>>> prepare_waiting_;
  std::vector<Proc> procs_;
  std::vector<ProcessId> parked_;
  int chunks_total_ = 0;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::uint64_t seq_ = 0;
  Seconds now_ = 0;
  Seconds migration_finish_ = 0;
  MigrationReport report_;

  // Observability handles (all null without a collector).
  obs::Span exec_span_;
  obs::Phase exec_phase_;
  obs::Counter* obs_chunks_ = nullptr;
  obs::Counter* obs_chunk_retries_ = nullptr;
  obs::Counter* obs_chunk_timeouts_ = nullptr;
  obs::Counter* obs_rollbacks_ = nullptr;
  obs::Counter* obs_replans_ = nullptr;
  obs::Counter* obs_commits_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Histogram* obs_chunk_seconds_ = nullptr;
  obs::Histogram* obs_downtime_ = nullptr;
  obs::Histogram* obs_prepare_wait_ = nullptr;
  obs::EventLog* elog_ = nullptr;
  obs::TimeSeriesRegistry* timeline_ = nullptr;
  std::vector<obs::TimeSeries*> tl_migration_;
  std::vector<obs::TimeSeries*> tl_latency_;
};

}  // namespace

MigrationReport execute_migration(const mapping::MappingProblem& problem,
                                  const Mapping& current, const Mapping& target,
                                  const fault::FaultPlan& plan,
                                  Seconds start_time,
                                  const MigrationOptions& options) {
  Engine engine(problem, current, target, plan, start_time, options);
  return engine.run();
}

}  // namespace geomap::migrate
